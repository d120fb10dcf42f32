"""Line, branch and condition coverage of ``src/ghostsim`` over the tier-1
tests, with the standard library only.

    PYTHONPATH=src python tests/linecov.py [PYTEST_ARGS...]

Runs pytest in this process, by default as tier-1 runs it but with
every warning an error, under a ``sys.settrace`` tracer that records
each line reached in ``src/ghostsim`` and each arc between two lines
reached one after the other in one call.  An import hook compiles the ``ghostsim`` modules
from a syntax tree in which every ``and``/``or`` operand and every
conditional-expression test is wrapped in a call that records whether
the value was truthy or falsy and returns it.  The call takes the
wrapped expression's location, so line events do not move.  Nor do the
arcs that leave an ``if``/``while`` test, which are all the rule below
reads: Python 3.11 puts the jump after a comparison on the comparison's
line but the jump after a call on its statement's first line, so only
arcs inside a test of several lines can differ.  The script then
prints:

* every executable line never reached;
* every ``if``/``while`` test that went only one way.  A test went true
  when an arc leads from its lines into the first statement of its body,
  and false when an arc leads from its lines anywhere else, a return
  included;
* every condition not seen both truthy and falsy: an ``and``/``or``
  operand or a conditional-expression test.  A literal is not a
  condition, nor is an operand that is itself an ``and``/``or``, whose
  own operands are.

An ``if`` whose test is a compound counts once as a test and once per
operand as conditions.  The exit status is 1 when the report lists
anything or pytest fails, else 0.  The tracer slows the simulator about
tenfold, so a test's wall-clock bound holds only when ``sys.gettrace()``
is None.  Line events differ between Python versions; the rules above
were checked on Python 3.11.

The file is not collected by pytest; tier-1 under the tracer takes
about two and a half minutes.
"""

import ast
import builtins
import importlib.abc
import importlib.machinery
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "ghostsim")
EXIT = -1                # the arc target of a return
# code objects whose line events do not belong to the enclosing
# function's flow: their lines count, their arcs do not
_INLINE = ("<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>", "<lambda>")
RECORD = "__linecov_condition__"   # the recorder, a builtin during the run
TRUTHY, FALSY = 1, 2


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


class Conditions(ast.NodeTransformer):
    """Wraps each condition of a module's tree in a ``RECORD(i, value)``
    call; ``sites[i]`` is ``(path, line, source)`` and ``seen[i]`` the
    ``TRUTHY``/``FALSY`` bits recorded for it."""

    def __init__(self, sites, seen, path):
        self.sites, self.seen, self.path = sites, seen, path

    def _wrap(self, node):
        if isinstance(node, (ast.Constant, ast.BoolOp)):
            return node
        self.sites.append((self.path, node.lineno, ast.unparse(node)))
        self.seen.append(0)
        call = ast.Call(ast.Name(RECORD, ast.Load()),
                        [ast.Constant(len(self.sites) - 1), node], [])
        for new in (call, call.func, call.args[0]):
            ast.copy_location(new, node)
        return call

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        node.values = [self._wrap(v) for v in node.values]
        return node

    def visit_IfExp(self, node):
        self.generic_visit(node)
        node.test = self._wrap(node.test)
        return node


class ConditionHook(importlib.abc.MetaPathFinder):
    """Imports the modules of ``files`` with their conditions wrapped.
    Each module is compiled once, so a second run of it (``runpy``)
    shares its sites; the recorder is a builtin while the hook is
    installed, so any namespace the code runs in finds it."""

    def __init__(self, files):
        self.files = set(files)
        self.sites = []
        self.seen = []
        self.codes = {}

    def record(self, i, value):
        self.seen[i] |= TRUTHY if value else FALSY
        return value

    def install(self):
        setattr(builtins, RECORD, self.record)
        sys.meta_path.insert(0, self)

    def remove(self):
        sys.meta_path.remove(self)
        delattr(builtins, RECORD)

    def find_spec(self, name, path, target=None):
        if name.partition(".")[0] != "ghostsim":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.origin not in self.files:
            return None
        spec.loader = _Loader(name, spec.origin, self)
        return spec

    def code(self, path, source):
        if path not in self.codes:
            tree = Conditions(self.sites, self.seen, path).visit(
                ast.parse(source, path))
            self.codes[path] = compile(tree, path, "exec", dont_inherit=True)
        return self.codes[path]


class _Loader(importlib.machinery.SourceFileLoader):
    def __init__(self, name, path, hook):
        super().__init__(name, path)
        self.hook = hook

    def get_code(self, fullname):
        """Compiled from the wrapped tree, never from or to a cache."""
        path = self.get_filename(fullname)
        return self.hook.code(path, self.get_data(path))


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


_WAYS = {0: "never evaluated", TRUTHY: "never falsy", FALSY: "never truthy"}


def report(tracer, hook):
    """Print the unreached lines, the one-way tests and the conditions
    not seen both ways."""
    found = 0
    total_lines = total_branches = 0
    root = os.path.dirname(os.path.dirname(SRC))
    for path in sorted(tracer.files):
        with open(path) as fh:
            text = fh.read()
        src = text.splitlines()
        tree = ast.parse(text, path)
        rel = os.path.relpath(path, root)
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
    for (path, ln, text), seen in sorted(zip(hook.sites, hook.seen)):
        if seen != TRUTHY | FALSY:
            print(f"{os.path.relpath(path, root)}:{ln}: condition "
                  f"{_WAYS[seen]}: {text}")
            found += 1
    print(f"{total_lines} executable lines, {total_branches} if/while "
          f"tests and {len(hook.sites)} conditions in "
          f"{os.path.relpath(SRC)}; {found} reported")
    return found


def main(argv):
    import pytest
    args = argv or ["-q", "-p", "no:cacheprovider",
                    "--continue-on-collection-errors", "-W", "error"]
    files = _sources()
    assert "ghostsim" not in sys.modules
    hook = ConditionHook(files)
    hook.install()
    tracer = Tracer(files)
    sys.settrace(tracer.call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        hook.remove()
    print(f"pytest exit status {int(status)}")
    return 1 if report(tracer, hook) or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
