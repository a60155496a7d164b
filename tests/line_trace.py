"""Which lines of src/recovery_track/ the tier-1 suite, or a part of it, never runs.

Run as `python tests/line_trace.py [TEST ...]`. Without arguments it runs
the whole tier-1 suite. Each TEST is a test file, directory or node id as
pytest takes it, relative to the repository root; the lines listed are then
those that the tests named never run, as with
`python tests/line_trace.py tests/test_acceptance.py`. It runs the tests in
this process under a sys.settrace hook, installed for this
thread and for every thread the suite starts, that records the lines run in
the package's source files only. A forked child or a subprocess is not
traced, so lines that only those run are listed as never run. Executable
lines are the line numbers of the bytecode of every code object that
compiling each file gives.

It prints each executable line that never ran as `file:line: text`, then a
count, and exits 0, or with pytest's status where the suite fails, since the
trace of a failed suite is not the suite's. Traced, the suite takes about
twice as long as untraced, so CI does not run it.
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "recovery_track"


def executable_lines(path: Path) -> set:
    """The line numbers the bytecode compiled from `path` carries."""
    lines = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(tests) -> int:
    files = {str(path): path for path in sorted(PACKAGE.rglob("*.py"))}
    ran = {name: set() for name in files}

    def hook(frame, event, arg):
        # the global hook sees each call; only frames of the package get a line hook
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def line_hook(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line_hook

        return line_hook

    import pytest

    os.chdir(ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *(tests or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unrun = 0
    for name, path in files.items():
        text = path.read_text(encoding="utf-8").splitlines()
        executable = executable_lines(path)
        total += len(executable)
        for line in sorted(executable - ran[name]):
            unrun += 1
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{unrun} of {total} executable lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
