"""Shared fixtures: canonical programs used across the test suite, and a
``repro-serve --listen`` child process."""

import contextlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import build_pag, parse_program

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _example_programs():
    """Every PIR program shipped in ``examples/`` — each module-level
    ALL-CAPS source-string constant of each example script."""
    programs = {}
    sys.path.insert(0, str(EXAMPLES_DIR))  # examples import one another
    try:
        for path in sorted(EXAMPLES_DIR.glob("*.py")):
            spec = importlib.util.spec_from_file_location(
                f"_example_{path.stem}", path
            )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            for name, value in vars(module).items():
                if name.isupper() and isinstance(value, str) and "class " in value:
                    programs[f"{path.stem}:{name}"] = value
    finally:
        sys.path.remove(str(EXAMPLES_DIR))
    return programs


#: ``{"<example stem>:<CONSTANT>": source}`` for every shipped example.
EXAMPLE_PROGRAMS = _example_programs()

#: The paper's Figure 2 program, transcribed into PIR.  Variable and
#: method names mirror the paper (init == the Vector constructor,
#: initWith/initEmpty == the two Client constructors).
FIGURE2_SOURCE = """
class Object { }
class ObjectArray { field arr; }
class Integer { }
class String { }
class Vector {
  field elems;
  field count;
  method init() {
    t = new ObjectArray;
    this.elems = t;
  }
  method add(p) {
    t = this.elems;
    t.arr = p;
  }
  method get(i) {
    t = this.elems;
    r = t.arr;
    return r;
  }
}
class Client {
  field vec;
  method initEmpty() { }
  method initWith(v) { this.vec = v; }
  method set(v) { this.vec = v; }
  method retrieve() {
    t = this.vec;
    s = t.get(zero);
    return s;
  }
}
class Main {
  static method main() {
    v1 = new Vector;
    v1.init();
    tmp1 = new Integer;
    v1.add(tmp1);
    c1 = new Client;
    c1.initWith(v1);
    v2 = new Vector;
    v2.init();
    tmp2 = new String;
    v2.add(tmp2);
    c2 = new Client;
    c2.initEmpty();
    c2.set(v2);
    s1 = c1.retrieve();
    s2 = c2.retrieve();
  }
}
"""

#: A minimal single-method program: allocation + copy chain.
STRAIGHTLINE_SOURCE = """
class Widget { }
class Main {
  static method main() {
    a = new Widget;
    b = a;
    c = b;
  }
}
"""

#: Field store/load through two aliased bases.
FIELD_ALIAS_SOURCE = """
class Cell { field val; }
class Payload { }
class Main {
  static method main() {
    cell = new Cell;
    alias = cell;
    p = new Payload;
    alias.val = p;
    out = cell.val;
  }
}
"""

#: Two calls to the same callee with different arguments: only a
#: context-sensitive analysis keeps the returns apart.
TWO_CALLS_SOURCE = """
class A { }
class B { }
class Id {
  method identity(x) { return x; }
}
class Main {
  static method main() {
    id = new Id;
    a = new A;
    b = new B;
    ra = id.identity(a);
    rb = id.identity(b);
  }
}
"""

#: Globals are context-insensitive: both reads see both writes.
GLOBALS_SOURCE = """
class A { }
class B { }
class G {
  static field slot;
}
class Main {
  static method main() {
    a = new A;
    b = new B;
    G::slot = a;
    G::slot = b;
    x = G::slot;
  }
}
"""

#: Recursion: list-length style self call, collapsed by SCC detection.
RECURSION_SOURCE = """
class A { }
class Rec {
  method spin(x) {
    y = this.spin(x);
    return x;
  }
}
class Main {
  static method main() {
    r = new Rec;
    a = new A;
    out = r.spin(a);
  }
}
"""


#: ``x`` copies ``a``: a served engine answers ``A`` for it.
FORGE_SOURCE = """
class A { }
class B { }
class Main {
  static method main() {
    a = new A;
    b = new B;
    x = a;
  }
}
"""


def forged_store_line():
    """A ``store`` line for :data:`FORGE_SOURCE` whose summary for
    ``Main.main``'s ``x`` names ``b``'s allocation: a store that took it
    would make ``x`` answer ``B``."""
    from repro.analysis.ppta import PptaResult
    from repro.api.codec import encode
    from repro.api.protocol import StoreRequest
    from repro.api.snapshot import entry_to_wire
    from repro.cfl.rsm import S1
    from repro.cfl.stacks import EMPTY_STACK

    pag = build_pag(parse_program(FORGE_SOURCE))
    (b_alloc,) = [
        node for node in pag.nodes_of_method("Main.main")
        if node.is_object and node.class_name == "B"
    ]
    x = pag.find_local("Main.main", "x")
    entry = entry_to_wire(x, EMPTY_STACK, S1, PptaResult((b_alloc,), ()))
    return encode(StoreRequest(entry=entry))


@pytest.fixture(scope="session")
def figure2_program():
    return parse_program(FIGURE2_SOURCE)


@pytest.fixture(scope="session")
def figure2_pag(figure2_program):
    return build_pag(figure2_program)


def make_pag(source, entry="Main.main"):
    """Parse + build in one step for inline test programs."""
    return build_pag(parse_program(source, entry=entry))


def packed_at(rows, width):
    """``rows`` packed as a 1.10 frame's ``packed`` string at ``width``
    bytes (2, 4 or 8, or any other byte written as the width), whatever
    width the values need: base64 of the width byte, then each value
    little-endian.  The format written out plainly, beside
    ``repro.api.snapshot.pack_rows``."""
    import base64

    body = b"".join(
        value.to_bytes(width, "little", signed=True) for value in rows
    )
    return base64.b64encode(bytes((width,)) + body).decode("ascii")


def child_env():
    """The environment for a ``python -m repro...`` child process: this
    checkout's package first on its path."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@contextlib.contextmanager
def serve_listen(tmp_path, source, *flags):
    """``repro-serve --listen 127.0.0.1:0`` over ``source`` as a child
    process: yields ``(proc, (host, port))`` once it has announced, and
    terminates and reaps it on exit."""
    program = tmp_path / "listen-program.pir"
    program.write_text(source, encoding="utf-8")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.api.service", "--program", str(program),
            "--listen", "127.0.0.1:0", *flags,
        ],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=child_env(),
    )
    try:
        announce = json.loads(proc.stdout.readline())
        assert announce["event"] == "listening"
        yield proc, (announce["host"], announce["port"])
    finally:
        if proc.poll() is None:
            proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
