"""Which code of `foltools` a benchmark workload never runs.

    python3 tools/traffic.py --workload geometry [--src DIR]

It replays every job of the workload, as `tools/replay.py` does
(`replay.job_list`, then `replay.run_row` per job, in this process through
`foltools.cli.run` imported from DIR, default: this checkout's src/), under
the standard library's `sys.settrace`, and prints per module of
DIR/foltools the functions never entered and, in the functions that were
entered, the statement lines never run (grouped by function, as line
ranges).  Module and class bodies run at import and are not counted.

A function that no job enters, or a branch that no job takes, is either
code that a simplification can delete or code that the benchmark does not
measure; the report says which code that is, and the reader decides which
of the two.  The documents and files the jobs write go to a temporary
directory; nothing under src/ or perfbench/ is written.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import sys
import tempfile
from pathlib import Path
from types import CodeType

sys.path.insert(0, str(Path(__file__).resolve().parent))
import replay  # noqa: E402  (tools/replay.py)

Key = tuple[int, str]  # a code object's (first line, name), unique enough within one file


def functions(code: CodeType):
    """Every function code object nested in `code` (lambdas and comprehensions
    included), outermost first; class bodies are walked, not yielded."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from functions(const)


def statement_lines(code: CodeType) -> set[int]:
    """The lines that hold code of `code` itself; its first line (the `def`, or
    its first decorator) is reported by the call, not as a line."""
    return {line for _, _, line in code.co_lines() if line is not None} - {code.co_firstlineno}


class Traffic:
    """The functions entered and the lines run, per file under one directory."""

    def __init__(self, package: Path):
        self.prefix = str(package.resolve()) + "/"
        self.lines: dict[str, dict[Key, set[int]]] = {}

    def _call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        seen = self.lines.setdefault(code.co_filename, {}).setdefault(_key(code), set())

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    @contextlib.contextmanager
    def tracing(self):
        previous = sys.gettrace()
        sys.settrace(self._call)
        try:
            yield
        finally:
            sys.settrace(previous)

    def report(self, path: Path) -> list[str]:
        """The text block of one module: its functions never entered, then the
        lines never run in each function that was entered."""
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)
        seen = self.lines.get(str(path.resolve()), {})
        every = list(functions(module))
        inner = {_key(c) for code in every if _key(code) not in seen for c in functions(code)}
        cold, partial = [], []
        for code in every:
            name = getattr(code, "co_qualname", code.co_name)  # co_qualname is new in Python 3.11
            if _key(code) not in seen:
                if _key(code) not in inner:  # a function inside a cold one is not named again
                    cold.append(f"{name} ({code.co_firstlineno})")
            elif missed := sorted(statement_lines(code) - seen[_key(code)]):
                partial.append(f"    {name}: {_ranges(missed)}")
        if not cold and not partial:
            return []
        never = sum(_key(code) not in seen for code in every)
        out = [f"{path.name}: {never} of {len(every)} functions never entered, {len(partial)} entered with lines never run"]
        if cold:
            out.append("  never entered: " + ", ".join(cold))
        if partial:
            out += ["  lines never run:"] + partial
        return out


def _key(code: CodeType) -> Key:
    return code.co_firstlineno, code.co_name


def _ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3-5, 9"."""
    spans = []
    for n in lines:
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("algebra", "geometry"))
    parser.add_argument("--src", type=Path, default=replay.ROOT / "src", help="source tree holding foltools/")
    args = parser.parse_args(argv)
    cli = replay.import_cli(args.src)
    package = args.src / "foltools"
    traffic = Traffic(package)
    with tempfile.TemporaryDirectory() as tmp:
        jobs = replay.job_list(args.workload, Path(tmp))
        # each job's row line goes nowhere: the report is the output
        with contextlib.redirect_stdout(io.StringIO()), traffic.tracing():
            rows = [replay.run_row(cli, *job) for job in jobs]
    crashed = sum(isinstance(row["rc"], str) for row in rows)
    print(f"{len(rows)} {args.workload} jobs traced ({crashed} crashed)")
    for path in sorted(package.glob("*.py")):
        for line in traffic.report(path):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
