"""The reachability ledger: ``REACHABILITY.json`` and the check that reads it.

``scripts/ci_check.sh`` runs the system's entry points with
``scripts/reach_hook`` switched on and ends with ``scripts/reachability.py``,
which fails when a ``src/repro`` function no entry point reaches (or a
``PlatformConfig`` field none sets) is not in the ledger, and when a listed
one is reached or gone.  These tests run no entry point.  They check that
the ledger names only functions and fields that exist, each with a reason;
that the check flags each kind of disagreement on synthetic input; that the
check names a function the way Python names its code object, which is the
name the hook records; and that the hook follows a process into threads and
``os.exec*`` children.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path
from typing import Optional

import pytest

from repro.ecommerce.platform_builder import PlatformConfig

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
HOOK = ROOT / "scripts" / "reach_hook"


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "reachability", ROOT / "scripts" / "reachability.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reachability = _load_checker()
LEDGER = reachability.load_ledger(ROOT / "REACHABILITY.json")
#: Every reason starts with the kind of justification it is.
REASON_KINDS = ("safety", "oracle", "test seam", "debugging", "abstract")
PACKAGES = sorted(
    path.name for path in (SRC / "repro").iterdir() if (path / "__init__.py").exists()
) + ["<top level>"]


# -- the checked-in ledger --------------------------------------------------------


def test_every_listed_function_is_a_src_function():
    missing = sorted(set(LEDGER["functions"]) - reachability.functions())
    assert not missing, f"REACHABILITY.json lists functions src/repro lacks: {missing}"


def test_every_listed_field_is_a_platform_config_field():
    missing = sorted(set(LEDGER["config_fields"]) - reachability.config_fields())
    assert not missing, f"REACHABILITY.json lists fields PlatformConfig lacks: {missing}"


@pytest.mark.parametrize("section", ["functions", "config_fields"])
def test_every_reason_names_its_kind_and_says_why(section):
    for name, reason in LEDGER[section].items():
        kind, _, why = reason.partition(": ")
        assert kind in REASON_KINDS, f"{name}: reason {reason!r} names no kind {REASON_KINDS}"
        assert why.strip(), f"{name}: reason {reason!r} says nothing after its kind"


def test_ledger_sections_are_sorted():
    for section in ("functions", "config_fields"):
        assert list(LEDGER[section]) == sorted(LEDGER[section]), section


# -- the check, on synthetic input -------------------------------------------------

KNOWN = {"m:reached", "m:excused", "m:C.method"}
FIELDS = {"seed", "network"}
CLEAN = {
    "functions": {"m:excused": "safety: handles a crash"},
    "config_fields": {"network": "test seam: tests build lossy networks"},
}


def _problems(ledger=CLEAN, reached=("m:reached", "m:C.method"), set_fields=("seed",)):
    return reachability.problems(ledger, KNOWN, set(reached), FIELDS, set(set_fields))


def _with(section, name, reason):
    ledger = {key: dict(value) for key, value in CLEAN.items()}
    ledger[section][name] = reason
    return ledger


def test_clean_input_has_no_problems():
    assert _problems() == []


def test_flags_an_unlisted_unreached_function():
    (problem,) = _problems(reached={"m:reached"})
    assert problem.startswith("function m:C.method: no entry point reaches it")


def test_flags_a_listed_function_that_is_now_reached():
    (problem,) = _problems(reached={"m:reached", "m:C.method", "m:excused"})
    assert problem == "function m:excused: listed, but an entry point reaches it"


def test_flags_a_listed_function_that_is_gone():
    (problem,) = _problems(ledger=_with("functions", "m:deleted", "safety: was here"))
    assert problem == "function m:deleted: listed, but src/repro has no such function"


def test_flags_a_listed_function_without_a_reason():
    (problem,) = _problems(ledger=_with("functions", "m:excused", "  "))
    assert problem == "function m:excused: listed without a reason"


def test_flags_an_unset_field_without_a_reason():
    (problem,) = _problems(ledger=dict(CLEAN, config_fields={}))
    assert problem.startswith("field network: no entry point sets it")


def test_flags_a_listed_field_that_is_now_set():
    (problem,) = _problems(set_fields={"seed", "network"})
    assert problem == "field network: listed, but an entry point sets it"


def test_flags_a_listed_field_that_is_gone():
    (problem,) = _problems(ledger=_with("config_fields", "api_max_retries", "test seam: x"))
    assert problem == "field api_max_retries: listed, but src/repro has no such field"


def test_main_fails_on_a_problem_and_without_run_files(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps(LEDGER), encoding="utf-8")
    assert reachability.main([str(runs), "--ledger", str(ledger)]) == 1
    assert "no run files" in capsys.readouterr().err
    # A run that reached nothing leaves every unlisted function unexplained.
    (runs / "1.json").write_text(
        json.dumps({"functions": [], "config_fields": []}), encoding="utf-8"
    )
    assert reachability.main([str(runs), "--ledger", str(ledger)]) == 1
    assert "no entry point reaches it" in capsys.readouterr().err


def test_merge_is_the_union_of_the_run_files(tmp_path):
    for index, (functions, fields) in enumerate(
        [(["m:a", "m:b"], ["seed"]), (["m:b", "m:c"], []), ([], ["network"])]
    ):
        (tmp_path / f"{index}.json").write_text(
            json.dumps({"functions": functions, "config_fields": fields}), encoding="utf-8"
        )
    assert reachability.merge(tmp_path) == ({"m:a", "m:b", "m:c"}, {"seed", "network"}, 3)


# -- the check's names are the hook's names ----------------------------------------


def _code_qualnames(code: types.CodeType):
    """The qualname of every function compiled into ``code``: class bodies,
    lambdas and comprehensions are code objects too, but not functions."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield const.co_qualname
            yield from _code_qualnames(const)


def test_qualnames_cover_every_def_form(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    source = textwrap.dedent(
        """
        import sys

        def top():
            def inner():
                return lambda: None
            return inner

        class Outer:
            class Inner:
                async def coroutine(self):
                    pass

            @property
            def value(self):
                return 1

            @value.setter
            def value(self, new):
                pass

        if sys.version_info >= (3,):
            def conditional():
                pass
        else:
            def conditional():
                pass

        try:
            def guarded():
                pass
        except ImportError:
            def fallback():
                pass

        match sys.platform:
            case "never":
                def matched():
                    pass
        """
    )
    (package / "__init__.py").write_text(source, encoding="utf-8")
    names = reachability.functions(tmp_path)
    code = compile(source, "repro/__init__.py", "exec")
    assert names == {f"repro:{qualname}" for qualname in _code_qualnames(code)}
    assert "repro:top.<locals>.inner" in names
    assert "repro:Outer.Inner.coroutine" in names


@pytest.mark.parametrize("package", PACKAGES)
def test_qualnames_match_the_code_objects(package):
    if package == "<top level>":
        paths = sorted((SRC / "repro").glob("*.py"))
    else:
        paths = sorted((SRC / "repro" / package).rglob("*.py"))
    checked = reachability.functions()
    for path in paths:
        module = reachability._module_name(path, SRC)
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        from_code = {f"{module}:{qualname}" for qualname in _code_qualnames(code)}
        from_ast = {name for name in checked if name.partition(":")[0] == module}
        assert from_ast == from_code, path


def test_config_fields_are_the_dataclass_fields():
    assert reachability.config_fields() == {
        spec.name for spec in dataclasses.fields(PlatformConfig)
    }


# -- the hook ------------------------------------------------------------------------


def _hooked(script: str, out: Optional[Path] = None) -> subprocess.CompletedProcess:
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("PYTHONPATH", "REPRO_REACH_OUT")
    }
    env["PYTHONPATH"] = os.pathsep.join([str(HOOK), str(SRC)])
    if out is not None:
        env["REPRO_REACH_OUT"] = str(out)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )


def test_hook_follows_exec_into_a_child_interpreter(tmp_path):
    _hooked(
        """
        import os, sys
        from repro.core.metrics import precision_at_k

        precision_at_k(["a"], ["a"], 1)
        child = "from repro.core.metrics import recall_at_k; recall_at_k(['a'], ['a'], 1)"
        os.execv(sys.executable, [sys.executable, "-c", child])
        """,
        tmp_path,
    )
    reached, fields, files = reachability.merge(tmp_path)
    assert files == 2
    assert {"repro.core.metrics:precision_at_k", "repro.core.metrics:recall_at_k"} <= reached
    assert "repro.core.metrics:f1_at_k" not in reached
    assert fields == set()


def test_hook_records_threads(tmp_path):
    _hooked(
        """
        import threading
        from repro.core import metrics

        worker = threading.Thread(target=metrics.hit_rate_at_k, args=(["a"], ["a"], 1))
        worker.start()
        worker.join()
        """,
        tmp_path,
    )
    reached, _, _ = reachability.merge(tmp_path)
    assert "repro.core.metrics:hit_rate_at_k" in reached


def test_hook_records_non_default_config_fields(tmp_path):
    _hooked(
        """
        from repro.ecommerce.platform_builder import PlatformConfig

        PlatformConfig(seed=3, num_buyer_servers=1).validate()
        """,
        tmp_path,
    )
    reached, fields, _ = reachability.merge(tmp_path)
    assert "repro.ecommerce.platform_builder:PlatformConfig.validate" in reached
    assert fields == {"seed"}  # num_buyer_servers=1 is the default


def test_hook_is_off_without_an_output_directory():
    done = _hooked("import sys, repro; print(sys.gettrace() is None)")
    assert done.stdout.strip() == "True"
