"""Reachability hook: record which ``src/repro`` functions a process enters.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one, so putting this directory on ``PYTHONPATH`` and naming
an output directory in ``REPRO_REACH_OUT`` switches the hook on for every
interpreter started that way, child interpreters included (both settings
are inherited through the environment)::

    PYTHONPATH="$PWD/scripts/reach_hook:$PWD/src" REPRO_REACH_OUT=/tmp/reach \\
        python examples/quickstart.py

At exit, and before an ``os.exec*`` replaces the process, each process
writes one JSON file into the output directory: the ``module:qualname`` of
every ``src/repro`` function it entered, and the ``PlatformConfig`` fields
it validated with a value other than the field's default.
``scripts/reachability.py`` merges the files and checks them against
``REACHABILITY.json``.  Without ``REPRO_REACH_OUT`` the hook does nothing.

The hook is a ``sys.settrace`` global trace function that returns ``None``:
it runs once per Python call and never per line.  Entry-point runs take
roughly 2.5-3x as long under it.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading
import time

_OUT = os.environ.get("REPRO_REACH_OUT")
_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src", ""
)
_CONFIG_CHECK = "PlatformConfig.validate"

# id(code) -> code: the values keep each code object alive, so an id is
# never reused for another function while the process runs.
_seen = {}
_validate_ids = set()
_config_fields = set()


def _record_config(config) -> None:
    import dataclasses  # noqa: PLC0415 - only once a PlatformConfig exists

    for spec in dataclasses.fields(config):
        if spec.default is not dataclasses.MISSING:
            default = spec.default
        else:
            default = spec.default_factory()
        if getattr(config, spec.name) != default:
            _config_fields.add(spec.name)


def _trace(frame, event, arg):
    code = frame.f_code
    key = id(code)
    if key not in _seen:
        _seen[key] = code
        if code.co_qualname == _CONFIG_CHECK and code.co_filename.startswith(_SRC):
            _validate_ids.add(key)
    if key in _validate_ids:
        _record_config(frame.f_locals["self"])
    return None


def _module_of(filename: str) -> str:
    parts = filename[len(_SRC):-len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _dump() -> None:
    functions = sorted(
        {
            f"{_module_of(code.co_filename)}:{code.co_qualname}"
            for code in list(_seen.values())
            if code.co_filename.startswith(_SRC) and code.co_filename.endswith(".py")
        }
    )
    if not functions:
        return
    os.makedirs(_OUT, exist_ok=True)
    name = f"{os.getpid()}-{time.monotonic_ns()}.json"
    with open(os.path.join(_OUT, name), "w", encoding="utf-8") as handle:
        json.dump(
            {"argv": sys.argv, "functions": functions, "config_fields": sorted(_config_fields)},
            handle,
            indent=0,
        )


def _dumping_before(exec_function):
    def wrapper(*args, **kwargs):
        _dump()
        return exec_function(*args, **kwargs)

    return wrapper


if _OUT:
    sys.settrace(_trace)
    threading.settrace(_trace)
    atexit.register(_dump)
    # os.execl* / os.execlp* / os.execvp* all end in one of these two.
    os.execv = _dumping_before(os.execv)
    os.execve = _dumping_before(os.execve)
