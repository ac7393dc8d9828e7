"""Pytest plugin: list the functions and lines under ``src/repro`` no test runs.

Run the tier-1 suite with it loaded::

    PYTHONPATH=src python -m pytest -q -p tools.never_entered

The plugin installs a global trace function (``sys.settrace`` and
``threading.settrace``).  Its ``call`` events record every code object
entered; for code under ``src/repro`` it also returns a local tracer
that records each ``line`` event.  Forked worker processes (the farm's
process pool) keep tracing: an ``os.register_at_fork`` hook re-arms the
tracer in the child, and the child writes what it ran to a scratch
directory when it exits through multiprocessing's exit path.  Processes
started with ``exec`` (``subprocess``) are not followed.

At the end of the session the plugin reports:

* every ``def`` under ``src/repro`` (nested functions, methods and
  properties included; lambdas and generated code are not) that no
  process entered, with its size in lines;
* the executable lines (every line of a module, class or function body
  that holds a bytecode instruction after the body's prologue) that no
  process ran, per module.

The session fails when either count exceeds the committed baseline in
``tools/never_entered_baseline.txt`` (its ``functions N`` and ``lines N``
lines), or when a never-entered function is not listed there with its
reason (a ``path qualname: reason`` line).  Lower the counts, and drop
the listing of a function a test now enters, when a change removes or
starts testing code.
"""

from __future__ import annotations

import ast
import dis
import json
import multiprocessing.util
import os
import shutil
import sys
import tempfile
import threading
import types
from typing import Dict, List, Set, Tuple

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
BASELINE = os.path.join(ROOT, "tools", "never_entered_baseline.txt")

#: A function's identity: (file, first line as the compiler numbers it,
#: name).  A decorated function's first line is its first decorator's.
Key = Tuple[str, int, str]

#: Each code object under ``src/repro`` entered -> its executable lines
#: not yet run.  Keyed by the code object itself (which keeps it alive).
_unrun: Dict[types.CodeType, Set[int]] = {}
#: ``id(code)`` -> the local tracer for a code object (None: do not
#: trace its lines, because it is outside ``src/repro`` or every one of
#: its lines already ran).  Hashing a code object hashes its bytecode,
#: so the hot path looks up by id.
_tracers: Dict[int, object] = {}
_outside: List[types.CodeType] = []
_in_src: Dict[str, bool] = {}
_state: Dict[str, str] = {}
_NEW = object()


def _code_lines(code: types.CodeType) -> Set[int]:
    """Lines of *code*'s own instructions after its prologue (everything
    up to ``RESUME``, which sits on the ``def`` line and fires no line
    event)."""
    instructions = list(dis.get_instructions(code))
    start = next((index + 1 for index, instruction in enumerate(instructions)
                  if instruction.opname == "RESUME"), 0)
    return {instruction.positions.lineno
            for instruction in instructions[start:]
            if instruction.positions.lineno}


def _tracer_for(code: types.CodeType):
    inside = _in_src.get(code.co_filename)
    if inside is None:
        inside = _in_src[code.co_filename] = os.path.realpath(
            code.co_filename).startswith(SRC)
    if not inside:
        _outside.append(code)  # alive, so its id stays its own
        return None
    unrun = _unrun[code] = _code_lines(code)
    if not unrun:
        return None
    discard = unrun.discard

    def local(frame, event, arg):
        if event == "line":
            discard(frame.f_lineno)
            if not unrun:  # every line ran: stop tracing this code
                frame.f_trace_lines = False
                _tracers[id(code)] = None
        return local

    return local


def _trace(frame, event, arg):
    code = frame.f_code
    local = _tracers.get(id(code), _NEW)
    if local is _NEW:
        local = _tracers[id(code)] = _tracer_for(code)
    return local


def _collected():
    """(functions entered, {file: lines run}) by this process."""
    entered = set()
    lines: Dict[str, Set[int]] = {}
    for code, unrun in list(_unrun.items()):
        path = os.path.realpath(code.co_filename)
        entered.add((path, code.co_firstlineno, code.co_name))
        lines.setdefault(path, set()).update(_code_lines(code) - unrun)
    return entered, lines


class _Child:
    """Weak-referenceable anchor for multiprocessing's after-fork hook."""


_ANCHOR = _Child()


def _dump() -> None:
    entered, lines = _collected()
    path = os.path.join(_state["dir"], "%d.json" % os.getpid())
    with open(path, "w") as handle:
        json.dump({"entered": sorted(entered),
                   "lines": {name: sorted(ran)
                             for name, ran in lines.items()}}, handle)


def _after_fork_in_child() -> None:
    sys.settrace(_trace)
    threading.settrace(_trace)


def _register_dump(_anchor) -> None:
    # Runs in a multiprocessing child after its finalizer registry was
    # cleared, so this finalizer is the child's own.
    multiprocessing.util.Finalize(None, _dump, exitpriority=100)


def _sources():
    for directory, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.realpath(os.path.join(directory, name))
                with open(path) as handle:
                    yield path, handle.read()


def defined_functions() -> Dict[Key, Tuple[str, int]]:
    """Every ``def`` under ``src/repro`` -> (qualified name, lines)."""
    found: Dict[Key, Tuple[str, int]] = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [decorator.lineno for
                                              decorator in
                                              child.decorator_list])
                found[(path, first, child.name)] = (
                    prefix + child.name, child.end_lineno - first + 1)
                visit(path, child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(path, child, prefix + child.name + ".")
            else:
                visit(path, child, prefix)

    for path, source in _sources():
        visit(path, ast.parse(source, path), "")
    return found


def executable_lines() -> Dict[str, Set[int]]:
    """File -> its executable lines (:func:`_code_lines` of every code
    object in it)."""
    found: Dict[str, Set[int]] = {}

    def walk(code, lines):
        lines.update(_code_lines(code))
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, lines)

    for path, source in _sources():
        walk(compile(source, path, "exec"), found.setdefault(path, set()))
    return found


def read_baseline() -> Tuple[Dict[str, int], Dict[str, str]]:
    """The baseline's counts and its ``path qualname -> reason`` list."""
    counts: Dict[str, int] = {}
    reasons: Dict[str, str] = {}
    with open(BASELINE) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" in line:
                name, reason = line.split(":", 1)
                reasons[name.strip()] = reason.strip()
            else:
                kind, count = line.split()
                counts[kind] = int(count)
    return counts, reasons


def pytest_configure(config) -> None:
    _state["dir"] = tempfile.mkdtemp(prefix="never-entered-")
    os.register_at_fork(after_in_child=_after_fork_in_child)
    multiprocessing.util.register_after_fork(_ANCHOR, _register_dump)
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_sessionfinish(session, exitstatus) -> None:
    sys.settrace(None)
    threading.settrace(None)
    entered, ran = _collected()
    for name in os.listdir(_state["dir"]):
        with open(os.path.join(_state["dir"], name)) as handle:
            child = json.load(handle)
        entered.update(tuple(key) for key in child["entered"])
        for path, lines in child["lines"].items():
            ran.setdefault(path, set()).update(lines)
    shutil.rmtree(_state["dir"], ignore_errors=True)
    defined = defined_functions()
    missed = sorted(key for key in defined if key not in entered)
    counts, reasons = read_baseline()
    report = []
    unlisted = 0
    stale = set(reasons)
    for key in missed:
        path, line, _name = key
        qualname, size = defined[key]
        listed = "%s %s" % (os.path.relpath(path, ROOT), qualname)
        unlisted += listed not in reasons
        stale.discard(listed)
        report.append("%s:%d %s (%d lines)%s" % (
            os.path.relpath(path, ROOT), line, qualname, size,
            "" if listed in reasons else "  NOT LISTED in the baseline"))
    report += ["listed in the baseline but entered: %s" % name
               for name in sorted(stale)]
    executable = executable_lines()
    total = sum(len(lines) for lines in executable.values())
    never = 0
    for path in sorted(executable):
        missing = sorted(executable[path] - ran.get(path, set()))
        never += len(missing)
        if missing:
            report.append("%s: %d of %d lines never run: %s" % (
                os.path.relpath(path, ROOT), len(missing),
                len(executable[path]), _spans(missing)))
    report.append(
        "%d of %d functions under src/repro never entered (%d lines); "
        "baseline %d" % (len(missed), len(defined),
                         sum(defined[key][1] for key in missed),
                         counts["functions"]))
    report.append(
        "%d of %d executable lines under src/repro never run (%.1f%%); "
        "baseline %d" % (never, total, 100.0 * never / total,
                         counts["lines"]))
    _state["report"] = "\n".join(report)
    if len(missed) > counts["functions"] or never > counts["lines"] \
            or unlisted:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def _spans(lines) -> str:
    """``[1, 2, 3, 7]`` -> ``"1-3,7"``."""
    spans = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ",".join(str(low) if low == high else "%d-%d" % (low, high)
                    for low, high in spans)


def pytest_terminal_summary(terminalreporter) -> None:
    if "report" in _state:
        terminalreporter.section("never-entered functions and never-run lines")
        terminalreporter.write_line(_state["report"])
