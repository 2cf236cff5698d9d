"""IDE scenario: demand queries under *real* code edits, via the engine.

The paper motivates DYNSUM for "environments such as JIT compilers and
IDEs, particularly when the program constantly undergoes a lot of
edits".  This example is that scenario end to end, driven entirely
through the :class:`~repro.engine.core.PointsToEngine` a host would own:
queries (whole SafeCast workloads, as engine batches) keep flowing while
an :class:`~repro.engine.session.EditSession` applies method-body edits.
Each edit patches the program's PAG in place and drops exactly the
summaries it can invalidate (the edited method plus any method whose
boundary surface changed); the rest stay resident, and post-edit
answers are identical to a cold start — only cheaper.

Run with::

    python examples/ide_session.py
"""

from repro import PointsToEngine, SafeCastClient, parse_program

WORKSPACE = """
class Shape { }
class Circle extends Shape { }
class Square extends Shape { }

class ShapeFactory {
  static method create() {
    s = new Circle;
    return s;
  }
}

class Canvas {
  field current;
  method hold(x) { this.current = x; }
  method fetch() {
    r = this.current;
    return r;
  }
}

class Main {
  static method main() {
    shape = ShapeFactory::create();
    canvas = new Canvas;
    canvas.hold(shape);
    back = canvas.fetch();
    c = (Circle) back;
  }
}
"""


def report_queries(engine, label):
    verdicts, batch = engine.run_client(SafeCastClient)
    summary = ", ".join(f"{v.query.description}: {v.status}" for v in verdicts)
    print(
        f"{label:28s} [{batch.stats.steps:4d} steps, "
        f"{engine.analysis.summary_count:3d} summaries, "
        f"hit rate {batch.stats.hit_rate:4.0%}] {summary}"
    )


def main():
    engine = PointsToEngine.for_program(parse_program(WORKSPACE))
    session = engine.edit_session()
    print(f"workspace: {engine.pag}\n")

    report_queries(engine, "initial state")
    report_queries(engine, "re-run (warm cache)")

    # Edit 1: the user changes the factory to produce Squares.
    def squares(m):
        m.alloc("s", "Square").ret("s")

    edit = session.replace_body("ShapeFactory.create", squares)
    print(f"\nedit ShapeFactory.create -> Square   {edit!r}")
    report_queries(engine, "after factory edit")

    # Edit 2: revert.  Only the factory's summaries are repaid again.
    def circles(m):
        m.alloc("s", "Circle").ret("s")

    edit = session.replace_body("ShapeFactory.create", circles)
    print(f"\nedit ShapeFactory.create -> Circle   {edit!r}")
    report_queries(engine, "after revert")

    # Edit 3: touch an unrelated method; Canvas summaries survive.
    edit = session.edit("Canvas.hold", lambda method: None)
    print(f"\nno-op edit of Canvas.hold            {edit!r}")
    report_queries(engine, "after no-op edit")

    stats = engine.stats()
    print(
        f"\nsession totals: {stats.queries} queries over {stats.batches} "
        f"batches, {stats.edits} edits, cache at {stats.cache.entries} "
        f"summaries ({stats.cache.approx_bytes} bytes est.)"
    )
    print(
        "the cast verdict tracked every edit, and each edit repaid only "
        "the summaries it could have staled — the paper's low-budget "
        "IDE/JIT story, end to end."
    )


if __name__ == "__main__":
    main()
