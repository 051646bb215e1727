"""Report the lines under src/ that no CLI run of the output manifest reaches.

Usage:
    python tools/reach.py [ROOT]

Runs every run of tools/output_manifest.py (its six commands on the
bundled configs, on every workload's ``config_text(1)`` and on FEATURES)
through ``bsvielab.cli.main``, importing bsvielab from ROOT/src (by
default the checkout that holds this file), with the outputs written to
a temporary directory.  The runs go under a ``sys.settrace`` line trace
that records the lines executed in the files of ROOT/src/bsvielab.

It then compiles each module of ROOT/src/bsvielab and, for each function
or method in it, takes the lines of its body that hold code (those of the
code object's line table, without the ``def`` line; a comprehension,
generator expression or lambda counts towards the function it is written
in).  It prints one line per function some of whose lines no run
executed, in source order:

    module.qualname: 12/40 lines unreached: 101-104, 110

with "never entered" when no run executed any of them, then the totals.
Module and class bodies, which run on import, are not reported.  The
exit status is 0.

It uses the standard library only.  On a 2-vCPU host a report takes
about 2 s.  It is a tool, not a test: pytest does not collect it.
"""

from __future__ import annotations

import inspect
import os
import sys
import tempfile

import output_manifest

ANONYMOUS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>",
             "<lambda>")


def trace_runs(root: str) -> set[tuple[str, int]]:
    """(file, line) of every line executed under ROOT/src/bsvielab while
    the manifest's runs of ROOT ran."""
    package = os.path.join(root, "src", "bsvielab") + os.sep
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(package):
            return local
        return None

    with tempfile.TemporaryDirectory() as tmp:
        runs = output_manifest.run_all(root, tmp)
        sys.settrace(calls)
        try:
            for _ in runs:
                pass
        finally:
            sys.settrace(None)
    return seen


def code_lines(code) -> set[int]:
    """The lines of code's own line table, without its first line."""
    return {line for _, _, line in code.co_lines()
            if line is not None and line != code.co_firstlineno}


def functions(path: str):
    """(qualname, lines) of each function or method of the module at path,
    in source order; a nested anonymous code object adds its lines to the
    function it is written in."""
    with open(path, encoding="utf-8") as fh:
        module = compile(fh.read(), path, "exec")
    found = []

    def walk(code, owner):
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            if const.co_name in ANONYMOUS and owner is not None:
                owner[1].update(code_lines(const))
                walk(const, owner)
            elif const.co_flags & inspect.CO_OPTIMIZED:
                entry = (const.co_qualname, code_lines(const),
                         const.co_firstlineno)
                found.append(entry)
                walk(const, entry)
            else:  # a class body
                walk(const, None)

    walk(module, None)
    return [(name, lines) for name, lines, _ in
            sorted(found, key=lambda entry: entry[2])]


def spans(lines: list[int]) -> str:
    """"3-5, 9" for the ascending lines [3, 4, 5, 9]."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(root: str) -> list[str]:
    seen = trace_runs(root)
    package = os.path.join(root, "src", "bsvielab")
    lines, partial, never, missed = [], 0, 0, 0
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        for qualname, body in functions(path):
            unreached = sorted(line for line in body
                               if (path, line) not in seen)
            if not unreached:
                continue
            entered = len(unreached) < len(body)
            partial += entered
            never += not entered
            missed += len(unreached)
            lines.append(f"{name[:-3]}.{qualname}: {len(unreached)}/"
                         f"{len(body)} lines unreached"
                         + (f": {spans(unreached)}" if entered
                            else " (never entered)"))
    lines.append(f"functions partly reached: {partial}, never entered: "
                 f"{never}, unreached lines: {missed}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit(__doc__)
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    print("\n".join(report(os.path.abspath(sys.argv[1] if len(sys.argv) > 1
                                           else here))))
