"""Check the reachability ledger against what the entry points reached.

Every function under ``src/repro`` must either be entered by one of the
system's own entry points (the examples, ``python -m repro.experiments``,
the ``benchmarks/bench_*.py`` files and the wall-clock workloads) or be
listed in ``REACHABILITY.json`` with a one-line reason.  The same holds for
each ``PlatformConfig`` field: some entry point must set it to a value
other than its default, or the ledger says why not.  The entry points are
run with ``scripts/reach_hook`` switched on; this script merges the files
the hook wrote and reports every disagreement::

    python scripts/reachability.py RUNS_DIR [--ledger REACHABILITY.json]

It exits 1 when

- a function or field nothing reached is missing from the ledger or is
  listed without a reason;
- a listed function or field was reached after all;
- a listed name is not a function (or field) of ``src/repro`` any more.

Functions are named ``module:qualname`` as Python names their code objects
(``repro.core.metrics:precision_at_k``, ``repro.x:C.method``,
``repro.x:outer.<locals>.inner``); a property's getter and setter share
one name.  Lambdas, comprehensions and dataclass-generated methods are not
counted.  Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG_MODULE = "repro/ecommerce/platform_builder.py"
CONFIG_CLASS = "PlatformConfig"


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _qualnames(body: Iterable[ast.stmt], prefix: str) -> Iterable[str]:
    """The qualname of every ``def`` in ``body``, nested ones included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + node.name
            yield qualname
            yield from _qualnames(node.body, qualname + ".<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _qualnames(node.body, prefix + node.name + ".")
        else:
            # Definitions under if / try / with / for keep the enclosing prefix.
            for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                yield from _qualnames(getattr(node, field, ()), prefix)


def functions(src: Path = SRC) -> Set[str]:
    """``module:qualname`` of every function defined under ``src/repro``."""
    names: Set[str] = set()
    for path in sorted((src / "repro").rglob("*.py")):
        module = _module_name(path, src)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names.update(f"{module}:{qualname}" for qualname in _qualnames(tree.body, ""))
    return names


def config_fields(src: Path = SRC) -> Set[str]:
    """The annotated fields of ``PlatformConfig``."""
    tree = ast.parse((src / CONFIG_MODULE).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == CONFIG_CLASS:
            return {
                statement.target.id
                for statement in node.body
                if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
            }
    raise LookupError(f"no class {CONFIG_CLASS} in {CONFIG_MODULE}")


def merge(runs: Path) -> Tuple[Set[str], Set[str], int]:
    """Union of the hook's run files: (functions entered, fields set, files)."""
    reached: Set[str] = set()
    fields: Set[str] = set()
    files = sorted(runs.glob("*.json"))
    for path in files:
        run = json.loads(path.read_text(encoding="utf-8"))
        reached.update(run["functions"])
        fields.update(run["config_fields"])
    return reached, fields, len(files)


def _section_problems(
    kind: str, verb: str, listed: Mapping[str, str], known: Set[str], reached: Set[str]
) -> List[str]:
    problems = []
    for name in sorted(known - reached - set(listed)):
        problems.append(f"{kind} {name}: no entry point {verb} it and the ledger gives no reason")
    for name, reason in sorted(listed.items()):
        if name not in known:
            problems.append(f"{kind} {name}: listed, but src/repro has no such {kind}")
        elif name in reached:
            problems.append(f"{kind} {name}: listed, but an entry point {verb} it")
        elif not str(reason).strip():
            problems.append(f"{kind} {name}: listed without a reason")
    return problems


def problems(
    ledger: Mapping[str, Mapping[str, str]],
    known_functions: Set[str],
    reached: Set[str],
    known_fields: Set[str],
    set_fields: Set[str],
) -> List[str]:
    """Every disagreement between the ledger and what the entry points reached."""
    return _section_problems(
        "function", "reaches", ledger.get("functions", {}), known_functions, reached
    ) + _section_problems(
        "field", "sets", ledger.get("config_fields", {}), known_fields, set_fields
    )


def load_ledger(path: Path) -> Dict[str, Dict[str, str]]:
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", type=Path, help="directory the reachability hook wrote into")
    parser.add_argument("--ledger", type=Path, default=ROOT / "REACHABILITY.json")
    args = parser.parse_args(argv)

    reached, set_fields, files = merge(args.runs)
    if not files:
        print(f"reachability: no run files in {args.runs}", file=sys.stderr)
        return 1
    known = functions()
    found = problems(load_ledger(args.ledger), known, reached, config_fields(), set_fields)
    for problem in found:
        print(f"reachability: {problem}", file=sys.stderr)
    print(
        f"reachability: {files} runs reached {len(known & reached)} of {len(known)} "
        f"functions; {len(found)} problem(s)"
    )
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
