from __future__ import annotations

import contextlib
import io
import json
import socket
import threading
from importlib import resources

import numpy as np
import pytest

from ranweave.retrieval import (
    EMBED_BASE_URL_ENV,
    RemoteEmbedder,
    RetrievalUnavailableError,
)
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
    embedder = RemoteEmbedder(base_url="embed.example/v1")
    with pytest.raises(RetrievalUnavailableError, match="embedding request failed: unknown url type"):
        embedder("anything")


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
    ],
    ids=["null-content", "read-timeout", "dropped-connection", "deeply-nested", "http-500"],
)
def test_http_transport_turns_backend_failures_into_transport_error(monkeypatch, behaviour, match):
    monkeypatch.setenv("no_proxy", "*")
    with _loopback_server(behaviour) as url:
        transport = HttpChatTransport(base_url=url, timeout=0.5)
        with pytest.raises(TransportError, match=match):
            transport.complete(AgentRequest(role="reasoning", render=tuple, payload={}))


def test_remote_embedder_requires_endpoint(monkeypatch):
    monkeypatch.delenv(EMBED_BASE_URL_ENV, raising=False)
    with pytest.raises(RetrievalUnavailableError):
        RemoteEmbedder()


def test_remote_embedder_normalizes_response(monkeypatch):
    def fake_urlopen(request, timeout):
        body = json.loads(request.data.decode("utf-8"))
        assert body["input"] == ["hello ran"]
        payload = {"data": [{"embedding": [3.0, 4.0]}]}
        return _FakeResponse(json.dumps(payload).encode("utf-8"))

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    embedder = RemoteEmbedder(base_url="http://embed.example/v1", model="text-embedding-3-small")
    vector = embedder("hello ran")
    assert np.allclose(vector, [0.6, 0.8])


def test_remote_embedder_refuses_a_vector_of_another_length(monkeypatch):
    answers = iter([[3.0, 4.0], [1.0, 2.0, 2.0], [0.0, 5.0]])

    def fake_urlopen(request, timeout):
        payload = {"data": [{"embedding": next(answers)}]}
        return _FakeResponse(json.dumps(payload).encode("utf-8"))

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    embedder = RemoteEmbedder(base_url="http://embed.example/v1")
    assert np.allclose(embedder("a chunk"), [0.6, 0.8])
    with pytest.raises(RetrievalUnavailableError, match="failed: expected 2 components, .* got 3"):
        embedder("the query")
    assert np.allclose(embedder("the query"), [0.0, 1.0])


def test_remote_embedder_surfaces_failures(monkeypatch):
    def fake_urlopen(request, timeout):
        return _FakeResponse(b"not json at all")

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    embedder = RemoteEmbedder(base_url="http://embed.example/v1")
    with pytest.raises(RetrievalUnavailableError, match="embedding request failed"):
        embedder("anything")


@pytest.mark.parametrize(
    "behaviour, match",
    [
        (lambda conn, done: None, "Remote end closed"),
        (lambda conn, done: done.wait(5), "timed out"),
        (_reply(b"[1, 2]"), "list indices"),
        (_reply(b'{"data": [{"embedding": "0.5"}]}'), "shape ()"),
        (_reply(b'{"data": [{"embedding": "abc"}]}'), "could not convert"),
        (_reply(b'{"data": [{"embedding": [[1.0, 2.0], [3.0]]}]}'), "inhomogeneous"),
        (_reply(b'{"data": [{"embedding": [[1.0, 2.0]]}]}'), r"shape \(1, 2\)"),
        (_reply(b'{"data": [{"embedding": []}]}'), r"shape \(0,\)"),
        (_reply(b'{"data": [{"embedding": null}]}'), "shape ()"),
        (_reply(b'{"data": [{"embedding": [1.0, null]}]}'), "finite"),
        (_reply(b'{"data": [{"embedding": [1.0, NaN]}]}'), "finite"),
        (_reply(_DEEPLY_NESTED), "recursion"),
        (_reply(b'{"data": [{"embedding": [' + b"9" * 400 + b"]}]}"), "too large to convert to float"),
        (_reply(b'{"error": "overloaded"}', "500 Internal Server Error"), "HTTP Error 500"),
    ],
    ids=[
        "dropped-connection", "read-timeout", "list-body", "string-number", "string",
        "ragged", "two-dimensional", "empty", "null", "null-component", "nan-component",
        "deeply-nested", "oversized-number", "http-500",
    ],
)
def test_remote_embedder_turns_backend_failures_into_retrieval_errors(monkeypatch, behaviour, match):
    monkeypatch.setenv("no_proxy", "*")
    with _loopback_server(behaviour) as url:
        embedder = RemoteEmbedder(base_url=url, timeout=0.5)
        with pytest.raises(RetrievalUnavailableError, match="embedding request failed") as caught:
            embedder("anything")
    assert caught.match(match)


def test_prompt_templates_ship_with_versions():
    prompt_dir = resources.files("ranweave").joinpath("prompts")
    for name in ("perception.txt", "reasoning.txt", "refinement.txt", "single_agent.txt"):
        text = prompt_dir.joinpath(name).read_text(encoding="utf-8")
        assert text.splitlines()[0].startswith("# template:")
        assert "version" in text.splitlines()[0]

