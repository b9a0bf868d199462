"""Opt-in pytest plugin that lists every line of a ``src/localgrad`` function
that the test run never executes (``coverage`` need not be installed):

    PYTHONPATH=src:tests python -m pytest -q -p line_audit

A ``sys.settrace`` tracer, also set for new threads, records the line events
of frames whose code lives under ``src/localgrad``.  At the end of the run
the plugin compiles each package module and reports, under "line audit",
each line of a function body (a code object with ``CO_OPTIMIZED``, so module
and class bodies, which run at import, are left out) that never ran.  The
file is not named ``test_*.py``, so pytest does not collect it as tests.
"""

import inspect
import sys
import threading
from pathlib import Path

_PACKAGE = str(Path(__file__).resolve().parent.parent / "src" / "localgrad")
_ran = set()  # (file, line) pairs executed under the package


def _local(frame, event, arg):
    _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_PACKAGE):
        _ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))  # the def line runs on the call
        return _local
    return None


def _function_lines(code):
    """The lines of every function code object nested in `code`."""
    if code.co_flags & inspect.CO_OPTIMIZED:
        yield from (line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _function_lines(const)


def unreached_lines():
    """Sorted (file, line) pairs of the package's function bodies that never ran."""
    missing = set()
    for path in sorted(Path(_PACKAGE).glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        missing |= {(str(path), line) for line in _function_lines(code)} - _ran
    return sorted(missing)


def pytest_configure(config):
    sys.settrace(_global)
    threading.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    missing = unreached_lines()
    terminalreporter.section("line audit")
    terminalreporter.write_line(f"{len(missing)} unreached line(s) in {_PACKAGE}")
    for path, line in missing:
        terminalreporter.write_line(f"{Path(path).name}:{line}")
