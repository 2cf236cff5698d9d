"""The native traversal kernel's availability/fallback contract.

The differential battery (``tests/test_ppta_fastpath.py``) pins the
kernel's bit-parity with the reference loop; this module pins the
*plumbing* around it:

* :func:`repro.native.availability` — a ``(bool, reason)`` pair, never
  an exception, whatever the host is missing;
* ``REPRO_NATIVE=0`` and a missing C compiler both degrade the
  ``native`` impl to the pure-Python ``array`` loop silently — answers
  and step counts identical, with the reason reported through engine
  stats as ``native_unavailable``;
* the :class:`~repro.engine.policy.EnginePolicy` ``traversal_impl``
  knob selects the impl (``native`` from boot), and the selection plus
  any native fallback reason — a kernel that cannot load, or a summary
  store it does not mirror — travel over the wire on ``stats-result``
  (protocol 1.5);
* a standalone PPTA whose start stack names a token the CSR image never
  interned reruns on ``array`` and leaves the kernel's token table the
  image's;
* the node sort ranks the kernel's boundary sort reads stay
  order-isomorphic to ``sort_key`` as patches append and drop nodes.
"""

import itertools

import pytest

from conftest import EXAMPLE_PROGRAMS
from repro.analysis import ppta
from repro.analysis.dynsum import DynSum
from repro.api.codec import encode, decode_response
from repro.api.protocol import StatsRequest
from repro.api.service import PointsToService
from repro.bench.generator import GeneratorConfig, generate_program
from repro.bench.runner import bench_analysis_config
from repro.cfl.budget import Budget
from repro.cfl.rsm import FAM_LOAD, FAM_STORE, S1, S2
from repro.cfl.stacks import EMPTY_STACK, intern_token
from repro.engine.core import PointsToEngine
from repro.engine.policy import CachePolicy, EnginePolicy
from repro.ir.parser import parse_program
from repro.native import availability, binding
from repro.native import session as native_session
from repro.pag.builder import build_pag


@pytest.fixture
def fresh_kernel_state():
    """Recompute the cached kernel-load outcome around a test that
    changes the environment it depends on."""
    binding._reset()
    yield
    binding._reset()


def make_pag(seed=3):
    return build_pag(
        generate_program(
            GeneratorConfig(
                seed=seed, domain_classes=4, data_classes=3, layers=2
            )
        )
    )


def answers(pag, impl):
    analysis = DynSum(pag, bench_analysis_config())
    with ppta.traversal_impl(impl):
        results = [
            analysis.points_to(node) for node in pag.local_var_nodes()
        ]
    return (
        [sorted(map(repr, r.pairs)) for r in results],
        [r.steps for r in results],
    )


class TestAvailability:
    def test_contract(self):
        ok, reason = availability()
        if ok:
            assert reason is None
        else:
            assert isinstance(reason, str) and reason

    def test_repro_native_0_disables(self, monkeypatch, fresh_kernel_state):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        binding._reset()
        ok, reason = availability()
        assert not ok
        assert reason == "disabled (REPRO_NATIVE=0)"

    def test_no_compiler_is_a_reason_not_an_error(
        self, monkeypatch, tmp_path, fresh_kernel_state
    ):
        # An unresolvable $CC means "no compiler", and an empty cache
        # dir keeps a previously compiled kernel from being reused.
        # (REPRO_NATIVE takes precedence, so clear an outer opt-out —
        # the CI no-compiler leg exports it suite-wide.)
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        binding._reset()
        ok, reason = availability()
        assert not ok
        assert "no C compiler" in reason


class TestFallback:
    def test_disabled_kernel_answers_identically(
        self, monkeypatch, fresh_kernel_state
    ):
        pag = make_pag()
        expected = answers(pag, "array")
        monkeypatch.setenv("REPRO_NATIVE", "0")
        binding._reset()
        assert answers(pag, "native") == expected

    def test_no_compiler_answers_identically(
        self, monkeypatch, tmp_path, fresh_kernel_state
    ):
        pag = make_pag(seed=4)
        expected = answers(pag, "array")
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        binding._reset()
        assert answers(pag, "native") == expected


class TestSelection:
    def test_policy_knob_pins_the_impl(self):
        pag = make_pag()
        native = PointsToEngine(pag, EnginePolicy(traversal_impl="native"))
        reference = PointsToEngine(
            pag, EnginePolicy(traversal_impl="reference")
        )
        nodes = list(pag.local_var_nodes())
        got = [sorted(map(repr, native.query(n).pairs)) for n in nodes]
        want = [sorted(map(repr, reference.query(n).pairs)) for n in nodes]
        assert got == want
        assert native.steps_total == reference.steps_total
        assert native.stats().traversal_impl == "native"
        assert reference.stats().traversal_impl == "reference"

    def test_unpinned_policy_reports_the_global_impl(self):
        engine = PointsToEngine(make_pag(), EnginePolicy())
        with ppta.traversal_impl("array"):
            assert engine.stats().traversal_impl == "array"

    @pytest.mark.parametrize("name", ["turbo", "fast"])
    def test_unknown_impl_is_rejected(self, name):
        with pytest.raises(ValueError, match="unknown traversal impl"):
            EnginePolicy(traversal_impl=name)
        with pytest.raises(ValueError, match="unknown traversal impl"):
            with ppta.traversal_impl(name):
                pass

    def test_serve_rejects_an_unknown_impl(self, capsys):
        from repro.api.service import main

        with pytest.raises(SystemExit) as exc:
            main(["--program", "unused.pir", "--traversal-impl", "fast"])
        assert exc.value.code == 2
        assert "--traversal-impl" in capsys.readouterr().err

    def test_serve_pins_the_engine_not_the_process(
        self, monkeypatch, capsys, tmp_path
    ):
        import io

        from repro.api.service import main

        program = tmp_path / "prog.pir"
        program.write_text(TestListeningAnnouncement.PROGRAM, encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.StringIO(encode(StatsRequest()) + "\n"))
        assert main(["--program", str(program), "--traversal-impl", "array"]) == 0
        stats = decode_response(capsys.readouterr().out.splitlines()[0])
        assert stats.traversal_impl == "array"
        assert ppta.active_traversal_impl() == "native"

    @pytest.mark.parametrize("host", ["disabled", "no-compiler"])
    def test_unpinned_engine_falls_back_on_a_kernelless_host(
        self, monkeypatch, tmp_path, fresh_kernel_state, host
    ):
        """The boot default is ``native``; where the kernel cannot load,
        an engine with no impl pin answers like ``reference`` on the
        ``array`` loop and says why in its stats."""
        pag = make_pag(seed=5)
        nodes = list(pag.local_var_nodes())
        reference = PointsToEngine(pag, EnginePolicy(traversal_impl="reference"))
        want = [sorted(map(repr, reference.query(n).pairs)) for n in nodes]
        if host == "disabled":
            monkeypatch.setenv("REPRO_NATIVE", "0")
        else:
            monkeypatch.delenv("REPRO_NATIVE", raising=False)
            monkeypatch.setenv("CC", "/nonexistent")
            monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "empty"))
        binding._reset()
        engine = PointsToEngine(pag, EnginePolicy())
        got = [sorted(map(repr, engine.query(n).pairs)) for n in nodes]
        stats = engine.stats()
        assert got == want
        assert engine.steps_total == reference.steps_total
        assert stats.traversal_impl == "native"
        reason = stats.native_unavailable
        if host == "disabled":
            assert reason == "disabled (REPRO_NATIVE=0)"
        else:
            assert "no C compiler" in reason


class TestStatsPlumbing:
    def test_native_unavailable_reason_reaches_stats(
        self, monkeypatch, fresh_kernel_state
    ):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        binding._reset()
        engine = PointsToEngine(
            make_pag(), EnginePolicy(traversal_impl="native")
        )
        stats = engine.stats()
        assert stats.traversal_impl == "native"
        assert stats.native_unavailable == "disabled (REPRO_NATIVE=0)"

    def test_non_native_engines_probe_nothing(self):
        engine = PointsToEngine(
            make_pag(), EnginePolicy(traversal_impl="array")
        )
        assert engine.stats().native_unavailable is None

    @pytest.mark.parametrize(
        "cache",
        [CachePolicy(max_entries=64), CachePolicy(max_facts=4096)],
        ids=["bounded", "facts-bounded"],
    )
    def test_unmirrored_stores_report_why(self, cache):
        """The kernel mirrors only the plain ``SummaryCache``; a bounded
        store, under either cap, answers every query on the array loop,
        and stats say so (a kernelless host reports its binding reason
        first)."""
        engine = PointsToEngine(
            make_pag(), EnginePolicy(traversal_impl="native", cache=cache)
        )
        for node in list(engine.pag.local_var_nodes())[:3]:
            engine.query(node)
        ok, reason = availability()
        want = "BoundedSummaryCache runs on the array loop" if ok else reason
        assert engine.stats().native_unavailable == want

    def test_stats_response_carries_the_fields(self):
        # The default plain store is the one the kernel mirrors, so a
        # host with a kernel reports no reason.
        engine = PointsToEngine(make_pag(), EnginePolicy(traversal_impl="native"))
        for node in list(engine.pag.local_var_nodes())[:3]:
            engine.query(node)
        response = PointsToService(engine).handle(StatsRequest())
        decoded = decode_response(encode(response))
        assert decoded.traversal_impl == "native"
        ok, reason = availability()
        assert decoded.native_unavailable == (None if ok else reason)


class TestPopulatedCaches:
    """A native engine whose summary cache is already populated when
    the kernel session first mirrors it — a snapshot warm start, or the
    live store after an edit — must answer exactly like
    ``reference``, steps included (the mirror path once crashed here
    with an ``AttributeError``)."""

    CONFIG = GeneratorConfig(
        seed=3, domain_classes=4, data_classes=3, layers=2, cast_density=0.6
    )

    @staticmethod
    def _require_kernel():
        ok, reason = availability()
        if not ok:
            pytest.skip(f"native kernel unavailable: {reason}")

    def _run(self, impl, warm_start=None, edit=False):
        from repro.clients import SafeCastClient
        from repro.ir.builder import MethodBuilder

        engine = PointsToEngine.for_program(
            generate_program(self.CONFIG),
            EnginePolicy(
                traversal_impl=impl,
                max_field_depth=16,
                warm_start=warm_start,
            ),
        )
        client = SafeCastClient(engine.pag)
        queries = client.queries()
        engine.query_batch(client.specs(queries), dedupe=False, reorder=False)
        if edit:
            target = queries[len(queries) // 2]
            engine.edit_session().edit(
                target.method,
                lambda method: MethodBuilder(method).alloc(target.var, "Object"),
            )
            client = SafeCastClient(engine.pag)
        batch = engine.query_batch(
            client.specs(client.queries()), dedupe=False, reorder=False
        )
        answers = [
            (result.complete, sorted(map(repr, result.pairs)))
            for result in batch.results
        ]
        return answers, engine.stats().steps

    def test_after_edit(self):
        self._require_kernel()
        assert self._run("native", edit=True) == self._run("reference", edit=True)

    def test_warm_started_from_a_snapshot(self, tmp_path):
        from repro.clients import SafeCastClient

        self._require_kernel()
        path = str(tmp_path / "cache.json")
        seed = PointsToEngine.for_program(
            generate_program(self.CONFIG),
            EnginePolicy(max_field_depth=16),
        )
        client = SafeCastClient(seed.pag)
        seed.query_batch(client.specs(client.queries()))
        seed.save_cache(path)
        native = self._run("native", warm_start=path)
        assert native == self._run("reference", warm_start=path)
        assert native[1] > 0


#: Suffixes for field names no image has seen: each test interns its
#: own, after compiling its image.
_FRESH_FIELDS = itertools.count()


def _ppta_outcome(impl, pag, node, stack, state):
    budget = Budget(None)
    with ppta.traversal_impl(impl):
        result = ppta.run_ppta(pag, node, stack, state, budget)
    return result.objects, result.boundaries, result.steps, budget.steps


def _loaded_field_program(field):
    """Loads ``field`` and never stores it, so the image interns only
    its load-family token."""
    return (
        f"class T {{ field {field}; }}\n"
        "class Main { static method main() { "
        f"y = new T; o = new T; x = y.{field}; }} }}"
    )


class TestForeignStartStacks:
    """The kernel reads only the image's tokens.  A standalone PPTA whose
    start stack holds a token the image never interned — alone, above
    an image token or below one — has no kernel id, so ``native`` reruns
    it on ``array`` with the budget untouched: answers and steps equal
    ``reference``'s, and the kernel graph registers no token.  The
    ``loaded-field`` rows use the store-family token of a field the
    image loads: a load of that field must still close it."""

    @pytest.mark.parametrize("name", [*sorted(EXAMPLE_PROGRAMS), "loaded-field"])
    def test_native_reruns_on_array_and_registers_nothing(self, name):
        suffix = next(_FRESH_FIELDS)
        if name == "loaded-field":
            field = f"zq_{suffix}"
            pag = build_pag(parse_program(_loaded_field_program(field)))
            image = pag.csr()
            assert intern_token(field, FAM_LOAD) in image.tok_fid
            foreign = [intern_token(field, FAM_STORE)]
        else:
            pag = build_pag(parse_program(EXAMPLE_PROGRAMS[name]))
            image = pag.csr()
            foreign = [
                intern_token(f"never_interned_{suffix}", family)
                for family in (FAM_LOAD, FAM_STORE)
            ]
        assert not any(token in image.tok_fid for token in foreign)
        own = [image.tokens[t] for t in (*image.li_tok, *image.sf_tok)]
        stacks = [EMPTY_STACK.push(token) for token in foreign]
        if own:
            stacks += [EMPTY_STACK.push(own[0]).push(token) for token in foreign]
            stacks += [EMPTY_STACK.push(token).push(own[0]) for token in foreign]
        for node in pag.local_var_nodes():
            for state in (S1, S2):
                for stack in stacks:
                    want = _ppta_outcome("reference", pag, node, stack, state)
                    assert _ppta_outcome("array", pag, node, stack, state) == want
                    assert _ppta_outcome("native", pag, node, stack, state) == want
        if availability()[0]:
            graph = image._native
            assert type(graph) is native_session._NativeGraph
            assert len(graph.tokens_by_id) == len(image.tokens)
            assert not any(token in graph.tok_index for token in foreign)


class _StubNode:
    __slots__ = ("sort_key",)

    def __init__(self, sort_key):
        self.sort_key = sort_key


class _StubImage:
    """What :class:`~repro.native.session._NodeRanks` reads of an image."""

    def __init__(self, keys, dead=()):
        self.nodes = [_StubNode(key) for key in keys]
        self.n_nodes = len(keys)
        self.dead = frozenset(dead)


def _assert_ranks_fit(ranks, image):
    live = [i for i in range(image.n_nodes) if i not in image.dead]
    rank = ranks.rank
    assert len({rank[i] for i in live}) == len(live)
    assert all(0 <= rank[i] < 2 ** 31 for i in live)
    by_key = sorted(live, key=lambda i: image.nodes[i].sort_key)
    assert sorted(live, key=rank.__getitem__) == by_key


def test_node_ranks_respace_a_crowded_gap_and_follow_drops():
    """Appending into one rank gap halves the room each time until a
    midpoint no longer fits; then every live rank is re-spaced.  Drops
    leave the order, and a node appended and dropped in one patch is
    never ranked.  Live ranks stay distinct and in ``sort_key`` order
    throughout."""
    keys = [(0,), (1,), (2,)]
    image = _StubImage(keys)
    ranks = native_session._NodeRanks(image)
    _assert_ranks_fit(ranks, image)
    first_gap = ranks.gap
    for k in range(40):
        # Just above (0,) and below the previous arrival: one gap.
        keys.append((0, 40 - k))
        image = _StubImage(keys, image.dead)
        ranks.follow(image, image.dead)
        _assert_ranks_fit(ranks, image)
    assert ranks.gap < first_gap  # the crowded gap was re-spaced
    dropped = {0, 4, 17, len(keys) - 1}
    keys += [(1, 5), (1, 6)]
    before = image.dead
    image = _StubImage(keys, dropped | {len(keys) - 1})
    ranks.follow(image, before)
    _assert_ranks_fit(ranks, image)
    assert len(ranks.order) == image.n_nodes - len(image.dead)
    before = image.dead
    image = _StubImage(keys, before | {1, 9})
    ranks.follow(image, before)
    _assert_ranks_fit(ranks, image)


class TestListeningAnnouncement:
    """``repro-serve --listen`` reports the impl it will answer with on
    its ``listening`` line — the default depends on a compiler being
    present, so a host on the fallback must be visible at start-up."""

    PROGRAM = """\
class Thing { }
class Main {
  static method main() {
    a = new Thing;
    b = a;
  }
}
"""

    def _announce(self, tmp_path, **env_overrides):
        import json
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        program = tmp_path / "prog.pir"
        program.write_text(self.PROGRAM, encoding="utf-8")
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.update(env_overrides)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.api.service",
                "--program", str(program), "--listen", "127.0.0.1:0",
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        try:
            return json.loads(proc.stdout.readline())
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_default_host_reports_native(self, tmp_path):
        announce = self._announce(tmp_path)
        assert announce["event"] == "listening"
        assert announce["traversal_impl"] == "native"
        ok, reason = availability()
        assert announce["native_unavailable"] == (None if ok else reason)

    def test_disabled_kernel_is_reported(self, tmp_path):
        announce = self._announce(tmp_path, REPRO_NATIVE="0")
        assert announce["traversal_impl"] == "native"
        assert announce["native_unavailable"] == "disabled (REPRO_NATIVE=0)"
