"""``repro-serve --listen``: one engine behind a thread-per-connection
line server.

``PointsToService`` has no internal locking, so the mount takes every
request through one lock.  Pinned here, against the real child process:

* two connections that take turns with queries and invalidates get,
  line for line, what one serial stdio stream of the same requests
  gets; two connections that send at once get the same points-to sets
  and no error;
* SIGTERM to ``repro-serve --listen --save-cache PATH`` while a client
  is sending writes a snapshot that warm-starts a fresh engine to the
  same answers;
* every connection shares the one engine, so no connection can write
  its summary store: a forged ``store`` line gets a typed error and
  changes no other connection's answer.
"""

import signal
import socket
import subprocess
import sys
import threading

from repro import EnginePolicy, PointsToEngine, build_pag, parse_program
from repro.api.codec import decode_response, encode
from repro.api.protocol import (
    ErrorResponse,
    InvalidateRequest,
    QueryRequest,
    QueryResponse,
)
from repro.api.service import PointsToService

from conftest import (
    FIGURE2_SOURCE,
    FORGE_SOURCE,
    child_env,
    forged_store_line,
    serve_listen,
)


def queries(pag):
    return sorted(
        (qname, node.name)
        for qname in pag.methods()
        for node in pag.nodes_of_method(qname)
        if node.is_local_var
    )


def request_lines(pag):
    """Each query of the program, with an invalidate of its method after
    every third one: the stream the connections share."""
    lines = []
    for index, (method, var) in enumerate(queries(pag)):
        lines.append(encode(QueryRequest(method=method, var=var)))
        if index % 3 == 2:
            lines.append(encode(InvalidateRequest(method=method)))
    return lines


def serial_answers(tmp_path, lines):
    """The same lines through one ``repro-serve`` stdio stream."""
    program = tmp_path / "serial.pir"
    program.write_text(FIGURE2_SOURCE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.api.service", "--program", str(program)],
        input="".join(line + "\n" for line in lines),
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


class Connection:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10.0)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def exchange(self, line):
        self.sock.sendall((line + "\n").encode("utf-8"))
        reply = self.reader.readline()
        assert reply, "the server closed the connection"
        return reply.rstrip("\n")

    def close(self):
        self.reader.close()
        self.sock.close()


def points_to(reply):
    response = decode_response(reply)
    assert isinstance(response, QueryResponse), reply
    return response.complete, response.objects


def test_interleaved_connections_get_the_serial_answers(tmp_path):
    lines = request_lines(build_pag(parse_program(FIGURE2_SOURCE)))
    want = serial_answers(tmp_path, lines)
    with serve_listen(tmp_path, FIGURE2_SOURCE) as (_proc, address):
        first, second = Connection(address), Connection(address)
        try:
            # Taking turns: the service sees one serial stream.
            got = [
                (first, second)[index % 2].exchange(line)
                for index, line in enumerate(lines)
            ]
            assert got == want
            # Sending at once: the lock still admits one request at a time.
            want_sets = {
                line: points_to(reply)
                for line, reply in zip(lines, want)
                if '"kind":"query"' in line
            }
            failures = []

            def hammer(connection, stream):
                try:
                    for line in stream * 4:
                        reply = connection.exchange(line)
                        if line in want_sets and points_to(reply) != want_sets[line]:
                            failures.append((line, reply))
                        elif isinstance(decode_response(reply), ErrorResponse):
                            failures.append((line, reply))
                except (AssertionError, OSError) as exc:  # a thread must not die silently
                    failures.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(first, lines)),
                threading.Thread(target=hammer, args=(second, lines[::-1])),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
        finally:
            first.close()
            second.close()


def test_sigterm_writes_a_snapshot_that_warm_starts_the_same_answers(tmp_path):
    pag = build_pag(parse_program(FIGURE2_SOURCE))
    lines = [encode(QueryRequest(method=m, var=v)) for m, v in queries(pag)]
    snapshot = tmp_path / "listen-cache.json"
    with serve_listen(tmp_path, FIGURE2_SOURCE, "--save-cache", str(snapshot)) as (
        proc,
        address,
    ):
        client = Connection(address)
        served = [points_to(client.exchange(line)) for line in lines]
        # A second client keeps sending while the signal lands.
        sending = threading.Event()

        def keep_sending():
            other = Connection(address)
            try:
                while True:
                    other.exchange(lines[0])
                    sending.set()
            except (OSError, AssertionError):
                pass
            finally:
                other.close()

        sender = threading.Thread(target=keep_sending)
        sender.start()
        assert sending.wait(timeout=10)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        sender.join(timeout=10)
        assert not sender.is_alive()
        client.close()
    warm = PointsToService(
        PointsToEngine(
            build_pag(parse_program(FIGURE2_SOURCE)),
            EnginePolicy(warm_start=str(snapshot)),
        )
    )
    assert warm.engine.warm_loaded > 0 and warm.engine.warm_skipped == 0
    assert [points_to(warm.handle_line(line)) for line in lines] == served


def test_a_forged_store_line_changes_no_connections_answer(tmp_path):
    query = encode(QueryRequest(method="Main.main", var="x"))
    with serve_listen(tmp_path, FORGE_SOURCE) as (_proc, address):
        forger = Connection(address)
        asker = Connection(address)
        try:
            _complete, objects = points_to(asker.exchange(query))
            assert [obj.class_name for obj in objects] == ["A"]
            refused = decode_response(forger.exchange(forged_store_line()))
            assert isinstance(refused, ErrorResponse)
            assert refused.code == "invalid-request"
            _complete, objects = points_to(asker.exchange(query))
            assert [obj.class_name for obj in objects] == ["A"]
        finally:
            forger.close()
            asker.close()
