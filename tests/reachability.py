"""Reachability: every function under ``src/repro`` is run by some command.

Runs every CLI subcommand at the ``tiny`` profile in this one process
under a ``sys.setprofile`` call hook, then lists each function defined
under ``src/repro`` (any ``def``, nested ones included) that no command
entered.  A listed function other than a ``__repr__`` must appear in
``tests/reachability_allowlist.txt`` with one of its fixed reasons;
otherwise it is printed as ``module:qualname`` and the exit status is 1.
An allowlist entry that names no function, or a function some command
did enter, fails the check too, so the list cannot go stale.

Run from the repository root::

    PYTHONPATH=src python tests/reachability.py

``--jobs 2`` runs are traced on the parent side only: forked workers
drop the hook.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
ALLOWLIST = Path(__file__).resolve().parent / "reachability_allowlist.txt"

#: Why an unreached function may stay (the allowlist's header says more).
REASONS = ("ledger", "flag", "oracle", "null", "worker")

#: ``(name, argv)``: every subcommand at ``tiny``; ``{d}`` is a scratch
#: directory.  ``report`` and ``chrome-trace`` read what ``fig1`` wrote.
COMMANDS = [
    ("fig1, every leg",
     "fig1 --profile tiny --seed 3 --provenance --dissemination --metrics --prof "
     "--timeseries --trace {d}/fig1/run.jsonl --trace-sample 0.3,sim.event=0.5 "
     "--export {d}/fig1"),
    ("fig2, faulted",
     "fig2 --profile tiny --seed 3 --loss 0.2 --dup 0.1 --delay 30 --churn 0.5"),
    ("fig3", "fig3 --profile tiny --seed 3"),
    ("fig4", "fig4 --peers 300 --seed 3"),
    ("faults, three engines",
     "faults --profile tiny --seed 3 --engine bartercast,gossip,ratio "
     "--losses 0,0.3 --churn 0,0.5 --top-k 2 --metrics"),
    ("dissemination",
     "dissemination --profile tiny --seed 3 --loss 0.2 --churn 0.1 "
     "--export {d}/diss"),
    ("explain, one subject",
     "explain --profile tiny --seed 3 --peer 0 --subject 1 --loss 0.2 "
     "--dissemination --export {d}/explain/one.json"),
    ("explain, top-k over engines",
     "explain --profile tiny --seed 3 --peer 0 --top-k 2 --policy ban "
     "--engine gossip,bartercast,ratio --export {d}/explain/top.json"),
    ("whitewash", "whitewash --seed 3 --metrics"),
    ("scalability", "scalability --peers 2000 --seed 3"),
    ("report", "report {d}/fig1"),
    ("chrome-trace", "chrome-trace {d}/fig1/run.jsonl"),
    ("fig2 --jobs 2",
     "fig2 --profile tiny --seed 3 --jobs 2 --timeseries --prof --metrics "
     "--export {d}/fig2"),
]


def _defs(body, prefix: str) -> Iterator[Tuple[str, int]]:
    """``(qualname, first line)`` of every ``def`` under ``body``; the
    first line is the first decorator's, as in ``co_firstlineno``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            yield name, min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield from _defs(node.body, name + ".<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, prefix + node.name + ".")
        elif hasattr(node, "body"):  # if / try / with blocks at any level
            for block in ("body", "orelse", "finalbody", "handlers"):
                yield from _defs(getattr(node, block, []), prefix)


def defined_functions() -> Dict[Tuple[str, int], str]:
    """``(file, first line) -> module:qualname`` of every function under
    ``src/repro``."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(), str(path))
        for qualname, line in _defs(tree.body, ""):
            found[str(path), line] = f"{module}:{qualname}"
    return found


def entered_code() -> Set[Tuple[str, int]]:
    """``(file, first line)`` of every code object the commands entered."""
    seen: Set[Tuple[str, int]] = set()
    add = seen.add

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            add((code.co_filename, code.co_firstlineno))

    def unhook():
        sys.setprofile(None)
        threading.setprofile(None)

    os.register_at_fork(after_in_child=unhook)
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        sys.path.insert(0, str(PACKAGE.parent))  # the tree whose functions are listed
        from repro import cli

        with tempfile.TemporaryDirectory() as scratch:
            for name, command in COMMANDS:
                argv = command.format(d=scratch).split()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    status = cli.main(argv)
                if status:
                    raise SystemExit(f"{name}: exit status {status}")
                print(f"  {name:<30} {time.perf_counter() - t0:5.1f}s", file=sys.stderr)
    finally:
        unhook()
    return {(str(Path(f).resolve()), line) for f, line in seen}


def _named(qualname: str) -> str:
    """The name a reader of the function writes: its own, or its class's
    for a dunder (``SweepError.__init__`` -> ``SweepError``)."""
    parts = [p for p in qualname.split(".") if not p.startswith("__")]
    return parts[-1] if parts else qualname


def read_allowlist() -> Tuple[Dict[str, Tuple[str, str]], List[str]]:
    """``module:qualname -> (reason, detail)`` and the entries' format
    errors.  A detail is checked against what it cites: an oracle hook's
    test file must name the function, and benchmarks/e2e must name a
    ledger row's function (for ``module:*``, the first word of its
    detail)."""
    allowed, errors = {}, []
    e2e = "".join(p.read_text() for p in sorted((ROOT / "benchmarks" / "e2e").glob("*.py")))
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        name, reason, *rest = line.split(None, 2) + [""]
        detail = rest[0].strip()
        where = f"{ALLOWLIST.name}:{number}: {name}"
        named = _named(name.split(":", 1)[-1])
        if reason not in REASONS:
            errors.append(f"{where}: reason {reason!r} is not one of {', '.join(REASONS)}")
        elif reason == "oracle":
            test = ROOT / detail.split()[0] if detail else None
            if test is None or not detail.startswith("tests/") or not test.is_file():
                errors.append(f"{where}: an oracle hook names the test file that reads it")
            elif named not in test.read_text():
                errors.append(f"{where}: {detail.split()[0]} never names {named}")
        elif reason == "ledger" and (
            (detail.split() or [""])[0] if named == "*" else named
        ) not in e2e:
            errors.append(f"{where}: benchmarks/e2e never names it")
        elif reason == "flag" and not detail:
            errors.append(f"{where}: a flag path names its flag or profile")
        if name in allowed:
            errors.append(f"{where}: listed twice")
        allowed[name] = (reason, detail)
    return allowed, errors


def main() -> int:
    t0 = time.perf_counter()
    entered = entered_code()
    functions = defined_functions()
    # ``__repr__`` is the interpreter's display hook, which no command
    # prints; everything else a command does not enter must be listed.
    unreached = {
        name for key, name in functions.items()
        if key not in entered and not name.endswith(".__repr__")
    }
    allowed, errors = read_allowlist()

    def listed(name: str) -> bool:
        return name in allowed or name.split(":")[0] + ":*" in allowed

    modules = {name.split(":")[0] for name in functions.values()}
    known = set(functions.values())
    for name in sorted(allowed):
        module, qualname = name.split(":", 1) if ":" in name else (name, "")
        if module not in modules or (qualname != "*" and name not in known):
            errors.append(f"allowlisted but not defined: {name}")
        elif name in known and name not in unreached:
            errors.append(f"allowlisted but reached: {name}")
    missing = sorted(name for name in unreached if not listed(name))
    for name in missing:
        print(name)
    for error in errors:
        print(error)
    counts = {r: sum(v[0] == r for v in allowed.values()) for r in REASONS}
    print(
        f"{len(functions)} functions, {len(unreached)} unreached (no __repr__), "
        f"{len(allowed)} allowlist entries ({', '.join(f'{r} {n}' for r, n in counts.items())}); "
        f"{len(missing)} unreached and not allowlisted; "
        f"{time.perf_counter() - t0:.1f}s",
        file=sys.stderr,
    )
    return 1 if missing or errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
