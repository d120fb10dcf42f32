"""Line and branch coverage of ``src/ghostsim`` over the tier-1 tests, with
the standard library only.

    PYTHONPATH=src python tests/linecov.py [PYTEST_ARGS...]

Runs pytest in this process, by default as tier-1 runs it, under a
``sys.settrace`` tracer that records each line reached in
``src/ghostsim`` and each arc between two lines reached one after the
other in one call.  It then prints:

* every executable line never reached;
* every ``if``/``while`` test that went only one way.  A test went true
  when an arc leads from its lines into the first statement of its body,
  and false when an arc leads from its lines anywhere else, a return
  included.

A compound test counts as one test, whichever operand decided it.  The
exit status is 1 when the report lists anything or pytest fails, else 0.
The tracer slows the simulator about tenfold, so a test's wall-clock
bound holds only when ``sys.gettrace()`` is None.  Line events differ
between Python versions; the rules above were checked on Python 3.11.

The file is not collected by pytest; tier-1 under the tracer takes
about three minutes.
"""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "ghostsim")
EXIT = -1                # the arc target of a return
# code objects whose line events do not belong to the enclosing
# function's flow: their lines count, their arcs do not
_INLINE = ("<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>", "<lambda>")


def _sources():
    return sorted(os.path.join(SRC, f) for f in os.listdir(SRC)
                  if f.endswith(".py"))


class Tracer:
    def __init__(self, files):
        self.files = set(files)
        self.lines = {f: set() for f in files}
        self.arcs = {f: set() for f in files}

    def call(self, frame, event, arg):
        """The ``sys.settrace`` hook: a local tracer for each call of a
        function of ``src/ghostsim``."""
        code = frame.f_code
        path = code.co_filename
        if path not in self.files:
            return None
        lines = self.lines[path]
        arcs = None if code.co_name in _INLINE else self.arcs[path]
        prev = EXIT

        def local(frame, event, arg):
            nonlocal prev
            if event == "line":
                ln = frame.f_lineno
                lines.add(ln)
                if arcs is not None:
                    arcs.add((prev, ln))
                prev = ln
            elif event == "return" and arcs is not None:
                arcs.add((prev, EXIT))
            return local
        return local


def executable_lines(path, tree):
    """Lines that start an instruction of the module's code, less line 0
    (the module's entry) and each function's ``def`` line, which a call
    does not trace, plus each decorator line."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    out = set()
    todo = [code]
    while todo:
        c = todo.pop()
        todo += [k for k in c.co_consts if hasattr(k, "co_lines")]
        lines = {ln for _, _, ln in c.co_lines() if ln is not None}
        if c is not code:
            lines.discard(c.co_firstlineno)
        out |= lines
    out.discard(0)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                out.add(dec.lineno)
    return out


def branches(tree):
    """(line, test lines, body lines) for every ``if`` and ``while``
    whose test is not a constant."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While)) \
                and not isinstance(node.test, ast.Constant):
            first = node.body[0]
            out.append((node.lineno,
                        set(range(node.lineno, node.test.end_lineno + 1)),
                        set(range(first.lineno, first.end_lineno + 1))))
    return out


def report(tracer):
    """Print the unreached lines and the one-way tests."""
    found = 0
    total_lines = total_branches = 0
    for path in sorted(tracer.files):
        with open(path) as fh:
            text = fh.read()
        src = text.splitlines()
        tree = ast.parse(text, path)
        rel = os.path.relpath(path, os.path.dirname(os.path.dirname(SRC)))
        lines = executable_lines(path, tree)
        total_lines += len(lines)
        for ln in sorted(lines - tracer.lines[path]):
            print(f"{rel}:{ln}: unreached: {src[ln - 1].strip()}")
            found += 1
        arcs = tracer.arcs[path]
        for ln, test, body in sorted(branches(tree), key=lambda b: b[0]):
            total_branches += 1
            leaving = {b for a, b in arcs if a in test and b not in test}
            went_true = bool(leaving & body)
            went_false = bool(leaving - body)
            if went_true == went_false:   # both ways, or an unreached line
                continue
            way = "never true" if went_false else "never false"
            print(f"{rel}:{ln}: {way}: {src[ln - 1].strip()}")
            found += 1
    print(f"{total_lines} executable lines and {total_branches} if/while "
          f"tests in {os.path.relpath(SRC)}; {found} reported")
    return found


def main(argv):
    import pytest
    args = argv or ["-q", "-p", "no:cacheprovider",
                    "--continue-on-collection-errors"]
    tracer = Tracer(_sources())
    sys.settrace(tracer.call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    print(f"pytest exit status {int(status)}")
    return 1 if report(tracer) or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
