"""The service façade: full request vocabulary, no reachable traceback.

``PointsToService`` must answer query/batch/alias/invalidate/stats over
JSON lines, attach client verdicts that match an in-process client run,
and render *every* malformed or unlucky input as a structured
``ErrorResponse`` — the acceptance bar is that no line of input can
surface a Python traceback.
"""

import io
import json

import pytest

from repro import PointsToEngine, SafeCastClient, build_pag, parse_program
from repro.api import (
    AliasRequest,
    AliasResponse,
    BatchRequest,
    BatchResponse,
    ErrorResponse,
    InvalidateRequest,
    InvalidateResponse,
    PointsToService,
    QueryRequest,
    QueryResponse,
    StatsRequest,
    StatsResponse,
    decode_response,
    encode,
)
from repro.api.service import main as serve_main
from repro.bench.runner import bench_engine_policy

from conftest import FIGURE2_SOURCE, FORGE_SOURCE, forged_store_line

QUICKSTART_SOURCE = """
class Animal { }
class Dog extends Animal { }
class Cat extends Animal { }
class Kennel {
  field occupant;
  method put(a) { this.occupant = a; }
  method get() {
    r = this.occupant;
    return r;
  }
}
class Main {
  static method main() {
    dogHouse = new Kennel;
    catHouse = new Kennel;
    rex = new Dog;
    tom = new Cat;
    dogHouse.put(rex);
    catHouse.put(tom);
    d = dogHouse.get();
    c = catHouse.get();
    sure = (Dog) d;
    oops = (Dog) c;
  }
}
"""


@pytest.fixture()
def service():
    pag = build_pag(parse_program(QUICKSTART_SOURCE))
    return PointsToService(PointsToEngine(pag, bench_engine_policy()))


class TestVocabulary:
    def test_query(self, service):
        response = service.handle(QueryRequest("Main.main", "d"))
        assert isinstance(response, QueryResponse)
        assert response.complete
        assert [obj.class_name for obj in response.objects] == ["Dog"]
        assert response.verdict is None
        assert response.steps > 0

    def test_query_with_client_verdict(self, service):
        safe = service.handle(
            QueryRequest("Main.main", "d", client="SafeCast", payload=("Dog",))
        )
        assert safe.verdict.status == "safe"
        assert safe.verdict.offenders == ()
        violation = service.handle(
            QueryRequest("Main.main", "c", client="SafeCast", payload=("Dog",))
        )
        assert violation.verdict.status == "violation"
        assert len(violation.verdict.offenders) == 1

    def test_client_verdicts_match_in_process_run(self, service):
        client = SafeCastClient(service.engine.pag)
        expected, _batch = client.run_engine(service.engine)
        response = service.handle(
            BatchRequest(
                queries=tuple(
                    QueryRequest(
                        q.method, q.var, client=q.client, payload=q.payload
                    )
                    for q in client.queries()
                )
            )
        )
        assert [r.verdict.status for r in response.results] == [
            v.status for v in expected
        ]

    def test_batch_aligns_with_request_order(self, service):
        request = BatchRequest(
            queries=(
                QueryRequest("Main.main", "d"),
                QueryRequest("Main.main", "c"),
                QueryRequest("Main.main", "d"),
            )
        )
        response = service.handle(request)
        assert isinstance(response, BatchResponse)
        assert len(response.results) == 3
        assert response.results[0] == response.results[2]
        assert response.stats.n_requests == 3
        assert response.stats.n_unique == 2  # policy dedupe collapsed one
        no_dedupe = service.handle(
            BatchRequest(queries=request.queries, dedupe=False)
        )
        assert no_dedupe.stats.n_unique == 3

    def test_alias(self, service):
        response = service.handle(
            AliasRequest("Main.main", "d", "Main.main", "rex")
        )
        assert isinstance(response, AliasResponse)
        assert response.verdict is True
        assert len(response.witnesses) == 1
        disjoint = service.handle(
            AliasRequest("Main.main", "d", "Main.main", "c")
        )
        assert disjoint.verdict is False

    def test_invalidate_then_stats(self, service):
        service.handle(QueryRequest("Main.main", "d"))
        response = service.handle(InvalidateRequest("Kennel.get"))
        assert isinstance(response, InvalidateResponse)
        assert response.dropped > 0
        stats = service.handle(StatsRequest())
        assert isinstance(stats, StatsResponse)
        assert stats.analysis == "DYNSUM"
        assert stats.queries == 1
        assert stats.cache.invalidated == response.dropped


class TestNoTracebackReachable:
    ADVERSARIAL_LINES = [
        "",
        "not json",
        "[]",
        "42",
        '{"kind":"query"}',
        '{"kind":"query","protocol_version":"9.1"}',
        '{"kind":"nope","protocol_version":"1.0"}',
        '{"kind":"query","method":"Ghost.m","var":"v","protocol_version":"1.0"}',
        '{"kind":"query","method":"Main.main","var":"ghost","protocol_version":"1.0"}',
        '{"kind":"query","method":"Main.main","var":"d","client":"NoSuch",'
        '"protocol_version":"1.0"}',
        '{"kind":"query","method":"Main.main","var":"d","client":"SafeCast",'
        '"payload":[],"protocol_version":"1.0"}',
        '{"kind":"query","method":"Main.main","var":"d","context":["x"],'
        '"protocol_version":"1.0"}',
        '{"kind":"batch","queries":[{"method":"Main.main"}],'
        '"protocol_version":"1.0"}',
        '{"kind":"invalidate","protocol_version":"1.0"}',
        '{"kind":"alias","method1":"Main.main","var1":"d",'
        '"protocol_version":"1.0"}',
    ]

    @pytest.mark.parametrize("line", ADVERSARIAL_LINES)
    def test_every_bad_line_yields_a_typed_error(self, service, line):
        response_line = service.handle_line(line)
        response = decode_response(response_line)
        assert isinstance(response, ErrorResponse)
        assert response.code in (
            "malformed-json",
            "invalid-request",
            "unsupported-version",
            "unknown-kind",
            "unknown-node",
            "unknown-client",
        ), response
        # And the error itself is well-formed canonical JSON.
        assert json.loads(response_line)["kind"] == "error"

    def test_error_codes_are_specific(self, service):
        cases = {
            "not json": "malformed-json",
            '{"kind":"nope","protocol_version":"1.0"}': "unknown-kind",
            '{"kind":"stats","protocol_version":"3.0"}': "unsupported-version",
            '{"kind":"query","method":"Ghost.m","var":"v",'
            '"protocol_version":"1.0"}': "unknown-node",
            '{"kind":"query","method":"Main.main","var":"d",'
            '"client":"NoSuch","protocol_version":"1.0"}': "unknown-client",
        }
        for line, code in cases.items():
            assert decode_response(service.handle_line(line)).code == code

    def test_unknown_client_lists_known_ones(self, service):
        response = decode_response(
            service.handle_line(
                '{"kind":"query","method":"Main.main","var":"d",'
                '"client":"NoSuch","protocol_version":"1.0"}'
            )
        )
        assert "SafeCast" in response.message


class TestStoreLevelKinds:
    """The served engine's summary store is not on the wire: every
    store-level kind gets a typed ``invalid-request`` that names
    ``repro-cached``, whatever the analysis."""

    LINES = {
        "lookup": '{"kind":"lookup","key":{"node":{"kind":"local",'
        '"method":"Main.main","name":"x"},"stack":[],"state":1},'
        '"protocol_version":"1.9"}',
        "store": forged_store_line(),
        "store-stats": '{"kind":"store-stats","protocol_version":"1.9"}',
        "batch-lookup": '{"kind":"batch-lookup","keys":[],"protocol_version":"1.9"}',
        "batch-store": '{"kind":"batch-store","entries":[],"protocol_version":"1.9"}',
        "batch-invalidate": '{"kind":"batch-invalidate","methods":["Main.main"],'
        '"protocol_version":"1.9"}',
        "fetch-methods": '{"kind":"fetch-methods","methods":null,'
        '"protocol_version":"1.9"}',
    }

    @pytest.mark.parametrize("analysis", ["DYNSUM", "CIPTA"])
    @pytest.mark.parametrize("kind", sorted(LINES))
    def test_store_level_kinds_are_refused(self, kind, analysis):
        service = PointsToService(
            PointsToEngine(
                build_pag(parse_program(FORGE_SOURCE)),
                bench_engine_policy(analysis=analysis),
            )
        )
        service.handle(QueryRequest("Main.main", "x"))
        before = service.engine.stats()
        response = decode_response(service.handle_line(self.LINES[kind]))
        assert isinstance(response, ErrorResponse)
        assert response.code == "invalid-request"
        assert repr(kind) in response.message and "repro-cached" in response.message
        assert service.engine.stats() == before

    def test_a_forged_store_line_does_not_change_an_answer(self):
        service = PointsToService.for_program(parse_program(FORGE_SOURCE))
        query = QueryRequest("Main.main", "x")
        assert [o.class_name for o in service.handle(query).objects] == ["A"]
        refused = decode_response(service.handle_line(forged_store_line()))
        assert isinstance(refused, ErrorResponse)
        assert refused.code == "invalid-request"
        assert [o.class_name for o in service.handle(query).objects] == ["A"]


class TestJsonLinesLoop:
    def test_serve_round_trip(self, service):
        lines = "\n".join(
            [
                encode(QueryRequest("Main.main", "d")),
                "",  # blank lines are ignored
                "junk",
                encode(StatsRequest()),
            ]
        )
        output = io.StringIO()
        service.serve(io.StringIO(lines + "\n"), output)
        responses = [
            decode_response(line) for line in output.getvalue().splitlines()
        ]
        assert len(responses) == 3
        assert isinstance(responses[0], QueryResponse)
        assert isinstance(responses[1], ErrorResponse)
        assert isinstance(responses[2], StatsResponse)
        # The stats response accounts the one successful query.
        assert responses[2].queries == 1


    @pytest.mark.parametrize(
        "bad", ['{"kind":["query"],"protocol_version":"1.7"}',
                '{"kind":{},"protocol_version":"1.7"}'],
        ids=["array-kind", "object-kind"],
    )
    def test_non_string_kind_is_answered_and_serving_continues(self, service, bad):
        output = io.StringIO()
        service.serve(io.StringIO(bad + "\n" + encode(StatsRequest()) + "\n"), output)
        responses = [
            decode_response(line) for line in output.getvalue().splitlines()
        ]
        assert [type(r) for r in responses] == [ErrorResponse, StatsResponse]
        assert responses[0].code == "unknown-kind"


class TestConsoleEntryPoint:
    def _run(self, argv, stdin_text, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = serve_main(argv)
        captured = capsys.readouterr()
        return code, captured

    def test_serve_program_file(self, tmp_path, monkeypatch, capsys):
        source = tmp_path / "prog.pir"
        source.write_text(FIGURE2_SOURCE)
        requests = encode(QueryRequest("Main.main", "s1")) + "\n" + "garbage\n"
        code, captured = self._run(
            ["--program", str(source)], requests, monkeypatch, capsys
        )
        assert code == 0
        out_lines = captured.out.splitlines()
        assert len(out_lines) == 2
        first = decode_response(out_lines[0])
        assert isinstance(first, QueryResponse)
        assert [obj.class_name for obj in first.objects] == ["Integer"]
        assert isinstance(decode_response(out_lines[1]), ErrorResponse)
        assert "repro-serve: serving DYNSUM" in captured.err

    def test_save_then_warm_start(self, tmp_path, monkeypatch, capsys):
        source = tmp_path / "prog.pir"
        source.write_text(FIGURE2_SOURCE)
        cache_path = tmp_path / "cache.json"
        request = encode(QueryRequest("Main.main", "s1")) + "\n"

        code, _ = self._run(
            ["--program", str(source), "--save-cache", str(cache_path)],
            request,
            monkeypatch,
            capsys,
        )
        assert code == 0 and cache_path.exists()

        code, captured = self._run(
            ["--program", str(source), "--warm-start", str(cache_path)],
            request,
            monkeypatch,
            capsys,
        )
        assert code == 0
        assert "warm start loaded" in captured.err
        warm = decode_response(captured.out.splitlines()[0])
        assert [obj.class_name for obj in warm.objects] == ["Integer"]

    def test_bad_program_path_fails_cleanly(self, monkeypatch, capsys):
        code, captured = self._run(
            ["--program", "/no/such/file.pir"], "", monkeypatch, capsys
        )
        assert code == 2
        assert "repro-serve:" in captured.err

    def test_save_cache_with_cacheless_analysis_fails_before_serving(
        self, tmp_path, monkeypatch, capsys
    ):
        source = tmp_path / "prog.pir"
        source.write_text(FIGURE2_SOURCE)
        code, captured = self._run(
            ["--program", str(source), "--analysis", "CIPTA",
             "--save-cache", str(tmp_path / "c.json")],
            encode(QueryRequest("Main.main", "s1")) + "\n",
            monkeypatch,
            capsys,
        )
        assert code == 2
        assert "no summary store" in captured.err
        assert captured.out == ""  # refused before answering anything

    def test_unwritable_save_cache_path_fails_cleanly(
        self, tmp_path, monkeypatch, capsys
    ):
        source = tmp_path / "prog.pir"
        source.write_text(FIGURE2_SOURCE)
        code, captured = self._run(
            ["--program", str(source),
             "--save-cache", str(tmp_path / "no" / "such" / "dir" / "c.json")],
            encode(QueryRequest("Main.main", "s1")) + "\n",
            monkeypatch,
            capsys,
        )
        assert code == 2
        assert "repro-serve:" in captured.err
        # The session itself still served before the failing save.
        assert '"kind":"query-result"' in captured.out

    def test_deeply_nested_line_yields_error_response(self, service):
        line = service.handle_line("[" * 100_000 + "]" * 100_000)
        assert json.loads(line)["code"] == "malformed-json"


class TestModuleEntryPoint:
    """``python -m repro.api.service`` (how a checkout starts
    ``repro-serve``) runs one copy of the module: the packages export
    the service lazily, so importing them does not load it first."""

    def test_runs_once_without_a_runpy_warning(self):
        import subprocess
        import sys

        from conftest import child_env

        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.api.service",
             "--help"],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0 and done.stderr == ""
        assert "repro-serve" in done.stdout

    def test_the_packages_export_the_services_own_class(self):
        import repro
        import repro.api
        import repro.api.service

        assert repro.PointsToService is repro.api.service.PointsToService
        assert repro.api.PointsToService is repro.api.service.PointsToService
        assert repro.api.CLIENT_REGISTRY is repro.api.service.CLIENT_REGISTRY
        with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
            repro.api.NoSuchName
