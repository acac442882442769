from __future__ import annotations

import contextlib
import io
import json
import socket
import threading
from importlib import resources

import pytest

from ranweave.transport import (
    CHAT_BASE_URL_ENV,
    AgentRequest,
    HttpChatTransport,
    TransportError,
)


class _FakeResponse(io.BytesIO):
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def test_http_transport_requires_configuration(monkeypatch):
    monkeypatch.delenv(CHAT_BASE_URL_ENV, raising=False)
    with pytest.raises(TransportError, match="no chat endpoint"):
        HttpChatTransport()


def test_http_transport_sends_messages_and_parses_content(monkeypatch):
    captured = {}

    def fake_urlopen(request, timeout):
        captured["url"] = request.full_url
        captured["body"] = json.loads(request.data.decode("utf-8"))
        captured["auth"] = request.headers.get("Authorization")
        payload = {"choices": [{"message": {"content": "{\"ok\": true}"}}]}
        return _FakeResponse(json.dumps(payload).encode("utf-8"))

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    transport = HttpChatTransport(base_url="http://ric.example/v1", model="gpt-test", api_key="sk-x")
    text = transport.complete(
        AgentRequest(
            role="reasoning",
            render=lambda: (
                {"role": "system", "content": "be useful"},
                {"role": "user", "content": "compose"},
            ),
            payload={},
        )
    )
    assert text == '{"ok": true}'
    assert captured["url"] == "http://ric.example/v1/chat/completions"
    assert captured["body"]["model"] == "gpt-test"
    assert [m["role"] for m in captured["body"]["messages"]] == ["system", "user"]
    assert captured["auth"] == "Bearer sk-x"


def test_http_transport_wraps_protocol_errors(monkeypatch):
    def fake_urlopen(request, timeout):
        return _FakeResponse(b'{"unexpected": "shape"}')

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    transport = HttpChatTransport(base_url="http://ric.example/v1")
    with pytest.raises(TransportError, match="chat completion failed"):
        transport.complete(AgentRequest(role="reasoning", render=tuple, payload={}))


def test_an_endpoint_without_a_scheme_fails_the_call():
    transport = HttpChatTransport(base_url="ric.example/v1")
    with pytest.raises(TransportError, match="chat completion failed: unknown url type"):
        transport.complete(AgentRequest(role="reasoning", render=tuple, payload={}))


def _read_request(conn: socket.socket) -> None:
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(4096)
        if not chunk:
            return
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = next(
        (int(line.split(b":", 1)[1]) for line in head.split(b"\r\n")
         if line.lower().startswith(b"content-length:")),
        0,
    )
    while len(body) < length:
        chunk = conn.recv(4096)
        if not chunk:
            return
        body += chunk


@contextlib.contextmanager
def _loopback_server(behaviour):
    """A one-thread 127.0.0.1 server: reads one request, then runs behaviour(conn, done).

    done is set when the client side is finished with the server.
    """
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(5)
    done = threading.Event()

    def serve():
        with contextlib.suppress(OSError):
            conn, _ = server.accept()
            with conn:
                conn.settimeout(5)
                _read_request(conn)
                behaviour(conn, done)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.getsockname()[1]}/v1"
    finally:
        done.set()
        thread.join(timeout=5)
        server.close()
    assert not thread.is_alive()


def _reply(body: bytes, status: str = "200 OK"):
    """Behaviour that answers with status and body."""

    def behaviour(conn, done):
        conn.sendall(
            f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n".encode("ascii")
            + f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode("ascii")
            + body
        )

    return behaviour


_DEEPLY_NESTED = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize(
    "behaviour, match",
    [
        (_reply(b'{"choices": [{"message": {"content": null}}]}'), "content is NoneType"),
        (lambda conn, done: done.wait(5), "timed out"),
        (lambda conn, done: None, "Remote end closed"),
        (_reply(_DEEPLY_NESTED), "recursion"),
        (_reply(b'{"error": "overloaded"}', "500 Internal Server Error"), "HTTP Error 500"),
        (_reply(b"not json at all"), "Expecting value"),
        (_reply(b"[1, 2]"), "list indices"),
    ],
    ids=[
        "null-content", "read-timeout", "dropped-connection", "deeply-nested", "http-500",
        "not-json", "list-body",
    ],
)
def test_http_transport_turns_backend_failures_into_transport_error(monkeypatch, behaviour, match):
    monkeypatch.setenv("no_proxy", "*")
    with _loopback_server(behaviour) as url:
        transport = HttpChatTransport(base_url=url, timeout=0.5)
        with pytest.raises(TransportError, match="chat completion failed") as caught:
            transport.complete(AgentRequest(role="reasoning", render=tuple, payload={}))
    assert caught.match(match)


def test_prompt_templates_ship_with_versions():
    prompt_dir = resources.files("ranweave").joinpath("prompts")
    for name in ("perception.txt", "reasoning.txt", "refinement.txt", "single_agent.txt"):
        text = prompt_dir.joinpath(name).read_text(encoding="utf-8")
        assert text.splitlines()[0].startswith("# template:")
        assert "version" in text.splitlines()[0]

