"""Which ramasim code the commands need: a line coverage split of tier 1.

Usage (from anywhere in the repository):

    python3 tools/coverage_split.py [pytest arguments, default: the tests folder]

Runs the test suite in this process under a ``sys.settrace`` line tracer and
sorts every line inside a ``src/ramasim`` function body (a comprehension's or
lambda's too) into one of three classes:

- ``cli``: reached at least once while ``ramasim.cli.main`` was running, or
  while a package module was being imported, as every command does;
- ``library``: reached only by direct library calls from the tests;
- ``none``: reached by nothing.

It prints a summary, then each function with lines outside the ``cli`` class
and the numbers of those lines. Tests that run the CLI in a subprocess are
not traced, so lines only they reach read ``none``. Standard library only,
apart from pytest, which runs the suite; the tracer makes the suite several
times slower. Exit status 1 if a test failed that is not in `TRACER_FAILURES`.
"""

import inspect
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ramasim"

# Reached only by tests that run the CLI in a subprocess: the config file
# refusals of a FIFO or device and of bytes that are not UTF-8, and `entry`.
SUBPROCESS_ONLY = ("is not a regular file", "except UnicodeDecodeError", "is not UTF-8",
                   "raise SystemExit(main())")

# Tests that can fail under the tracer with the program at no fault.
TRACER_FAILURES = {
    "tests/test_acceptance.py::test_criterion_3_symmetric_sum_rate_properties":
        "its wall-clock budget is 2 s, and the tracer slows the loop past it",
    "tests/test_cli.py::test_sweep_formatting_memory_does_not_grow_with_the_grid[False]":
        "its tracemalloc peak then includes the tracer's own allocations",
}


def body_lines(path: Path) -> dict:
    """Line -> qualified name of the function whose body holds it, for one module."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    owner = {}
    stack = [code]
    while stack:
        co = stack.pop()
        stack.extend(c for c in co.co_consts if inspect.iscode(c))
        if not co.co_flags & inspect.CO_OPTIMIZED:  # the module or a class body
            continue
        for _, _, line in co.co_lines():
            if line is not None and line != co.co_firstlineno:  # a def line fires no event
                owner.setdefault(line, co.co_qualname)
    return owner


def _is_root(code) -> bool:
    """True for `cli.main` and for a package module's import."""
    return code.co_name == "<module>" or (code.co_qualname == "main"
                                          and code.co_filename == str(PACKAGE / "cli.py"))


class Tracer:
    """Line events in the package's files, split by whether a root frame is running."""

    def __init__(self):
        self.files = {str(path) for path in PACKAGE.glob("*.py")}
        self.depth = 0  # root frames on the stack
        self.reached = {True: set(), False: set()}  # under a root -> {(file, line)}

    def call(self, frame, event, arg):
        if frame.f_code.co_filename not in self.files:
            return None
        if _is_root(frame.f_code):
            self.depth += 1
        return self.line

    def line(self, frame, event, arg):
        if event == "line":
            self.reached[self.depth > 0].add((frame.f_code.co_filename, frame.f_lineno))
        elif event == "return" and _is_root(frame.f_code):
            self.depth -= 1
        return self.line


class _Outcomes:
    """A pytest plugin that keeps the ids of failed tests."""

    def __init__(self):
        self.failed = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.append(report.nodeid)


def _ranges(lines) -> str:
    lines = sorted(lines)
    spans, start = [], lines[0]
    for prev, line in zip(lines, lines[1:] + [None]):
        if line != prev + 1:
            spans.append(str(start) if start == prev else f"{start}-{prev}")
            start = line
    return ", ".join(spans)


def report(tracer: Tracer, outcomes: _Outcomes) -> bool:
    """Print the split; True if no test failed beyond `TRACER_FAILURES`."""
    counts = defaultdict(int)
    by_function = defaultdict(lambda: defaultdict(list))  # (module, name) -> class -> lines
    hidden = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line, name in sorted(body_lines(path).items()):
            key = (str(path), line)
            kind = ("cli" if key in tracer.reached[True]
                    else "library" if key in tracer.reached[False] else "none")
            counts[kind] += 1
            by_function[(path.stem, name)][kind].append(line)
            if kind == "none" and any(text in source[line - 1] for text in SUBPROCESS_ONLY):
                hidden.append(f"{path.name}:{line}")
    total = sum(counts.values())
    print(f"\n{total} lines in function bodies: {counts['cli']} cli, "
          f"{counts['library']} library only, {counts['none']} none")
    never = [f"{module}.{name}" for (module, name), kinds in by_function.items()
             if not kinds["cli"]]
    print(f"{len(never)} functions never run under cli.main")
    print("\nfunction: lines reached only by library calls | by nothing")
    for (module, name), kinds in sorted(by_function.items()):
        if kinds["library"] or kinds["none"]:
            library = _ranges(kinds["library"]) if kinds["library"] else "-"
            none = _ranges(kinds["none"]) if kinds["none"] else "-"
            print(f"  {module}.{name}: {library} | {none}")
    print("\nNot visible: tests that run the CLI in a subprocess are not traced, so lines "
          f"that only they reach read 'none' ({', '.join(hidden) or 'none found'}).")
    print("Tests that can fail under the tracer with the program at no fault:")
    for test, why in TRACER_FAILURES.items():
        print(f"  {test}: {why}")
    unexpected = [test for test in outcomes.failed if test not in TRACER_FAILURES]
    print(f"Other failures: {', '.join(unexpected) if unexpected else 'none'}")
    return not unexpected


def main(argv) -> int:
    import pytest

    os.chdir(ROOT)
    tracer, outcomes = Tracer(), _Outcomes()
    sys.settrace(tracer.call)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *(argv or ["tests"])], plugins=[outcomes])
    finally:
        sys.settrace(None)
    return 0 if report(tracer, outcomes) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
