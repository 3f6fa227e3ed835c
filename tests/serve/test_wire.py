"""The NDJSON wire: a real server on a real socket, real clients.

One live server per test module (serial farm, private cache dir);
clients connect over TCP exactly as ``python -m repro serve`` users
would.  Covers pipelining with completion-order responses, dedup
observable from outside, abrupt client disconnects, and shutdown.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import threading

import pytest

import repro.cache
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.server import CompileService, ReproServer


@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    """A serving thread with its own event loop; yields (host, port)."""
    tmp_path = tmp_path_factory.mktemp("serve-wire")
    previous = repro.cache._ACTIVE
    ready = threading.Event()
    box = {}

    def serve() -> None:
        async def main() -> None:
            service = CompileService(cache_dir=tmp_path / "cache",
                                     use_pool=False, window=0.005)
            server = ReproServer(service, host="127.0.0.1", port=0)
            await server.start()
            box["host"], box["port"] = server.host, server.port
            box["service"] = service
            ready.set()
            await server.serve_until_shutdown()

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(timeout=30), "server failed to start"
    yield box["host"], box["port"]
    try:
        with ServeClient(host=box["host"], port=box["port"]) as client:
            client.shutdown()
    except OSError:
        pass                         # already down
    thread.join(timeout=30)
    repro.cache._ACTIVE = previous


def test_ping_and_stats(live_server):
    host, port = live_server
    with ServeClient(host=host, port=port) as client:
        assert client.ping()["result"] == {"pong": True}
        stats = client.stats()
        assert stats["pool"] == "serial"


def test_pipelined_duplicates_compile_once(live_server):
    host, port = live_server
    payload = {"op": "compile", "kernel": "dot_product",
               "target": "risc16", "compiler": "record"}
    with ServeClient(host=host, port=port) as client:
        responses = client.request_many([dict(payload)
                                         for _ in range(4)])
    served = sorted(response["served_by"] for response in responses)
    assert served.count("farm") <= 1
    assert all(response["ok"] for response in responses)
    listings = {response["result"]["listing"]
                for response in responses}
    assert len(listings) == 1
    # and a fresh connection sees the artifact as hot
    with ServeClient(host=host, port=port) as client:
        repeat = client.request(dict(payload))
    assert repeat["served_by"] == "cache"


def test_error_envelope_keeps_connection_usable(live_server):
    host, port = live_server
    with ServeClient(host=host, port=port) as client:
        with pytest.raises(ServeClientError):
            client.compile(kernel="no_such_kernel")
        assert client.ping()["ok"]


def test_abrupt_disconnect_mid_request_leaves_server_up(live_server):
    host, port = live_server
    raw = socket.create_connection((host, port), timeout=30)
    raw.sendall(b'{"id": 1, "op": "compile", "kernel": "fir", '
                b'"target": "risc16"}\n')
    raw.close()                       # gone before the response lands
    with ServeClient(host=host, port=port) as client:
        assert client.ping()["ok"]
        # the orphaned compile still went through store-or-farm; a
        # repeat must not recompile
        response = client.compile(kernel="fir", target="risc16")
    assert response["served_by"] in ("cache", "coalesced", "farm")


def _errors(host: str, port: int) -> int:
    with ServeClient(host=host, port=port) as client:
        return client.stats()["errors"]


def test_bad_json_line_answers_protocol_error(live_server):
    host, port = live_server
    before = _errors(host, port)
    with socket.create_connection((host, port), timeout=30) as raw, \
            raw.makefile("rb") as stream:
        raw.sendall(b"this is not json\n")
        line = stream.readline()
    response = json.loads(line)
    assert not response["ok"]
    assert response["error_type"] == "ProtocolError"
    assert _errors(host, port) == before + 1


def test_oversized_line_answers_protocol_error_and_closes(live_server,
                                                          caplog):
    """A line over the stream limit (64 KiB) is answered, counted and
    ends only its own connection, without an asyncio traceback."""
    host, port = live_server
    before = _errors(host, port)
    ping = json.dumps({"id": 7, "op": "ping", "pad": "x" * 70_000})
    with caplog.at_level(logging.WARNING, logger="asyncio"):
        with socket.create_connection((host, port), timeout=30) as raw, \
                raw.makefile("rb") as stream:
            raw.sendall(ping.encode() + b"\n")
            line = stream.readline()
            after = stream.readline()
        with ServeClient(host=host, port=port) as client:
            assert client.ping()["result"] == {"pong": True}
    response = json.loads(line)
    assert not response["ok"]
    assert response["error_type"] == "ProtocolError"
    assert after == b"", "the connection stayed open after the overrun"
    assert _errors(host, port) == before + 1
    # asyncio's debug mode logs each connection at DEBUG; a traceback
    # ("Exception in callback") is an ERROR.
    assert not [record for record in caplog.records
                if record.name == "asyncio"
                and record.levelno >= logging.WARNING]


def test_requests_before_an_overrun_are_answered(live_server):
    """Requests pipelined ahead of an oversized line still get their
    responses, and the close counts no client disconnect."""
    host, port = live_server
    with ServeClient(host=host, port=port) as client:
        before = client.stats()
    pipelined = [{"id": 1, "op": "ping"},
                 {"id": 2, "op": "compile", "kernel": "convolution",
                  "target": "m56"}]
    blob = b"".join(json.dumps(request).encode() + b"\n"
                    for request in pipelined)
    oversized = json.dumps({"id": 3, "op": "ping", "pad": "x" * 70_000})
    with socket.create_connection((host, port), timeout=30) as raw, \
            raw.makefile("rb") as stream:
        raw.sendall(blob + oversized.encode() + b"\n")
        responses = [json.loads(line) for line in stream]
    answered = {response.get("id"): response for response in responses}
    assert answered[1]["ok"] and answered[2]["ok"]
    assert answered[None]["error_type"] == "ProtocolError"
    assert len(responses) == 3
    with ServeClient(host=host, port=port) as client:
        after = client.stats()
    assert after["errors"] == before["errors"] + 1
    assert after["disconnects_mid_flight"] \
        == before["disconnects_mid_flight"]
