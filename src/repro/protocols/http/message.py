"""HTTP/1.1 request/response encoding and parsing.

HTTP decoys are GET requests whose ``Host`` header carries the experiment
domain; the honey website parses arriving requests with the same code.
The parser is strict about the pieces the pipeline relies on (request
line shape, header syntax, Content-Length framing) and deliberately
tolerant about the rest, mirroring how measurement honeypots behave.
"""

from typing import Dict, List, Optional, Tuple

from repro.records import frozen

_CRLF = b"\r\n"
_MAX_HEADERS = 128


class HttpMessageError(ValueError):
    """Raised when bytes do not parse as an HTTP/1.1 message."""


def _parse_headers(lines: List[bytes]) -> List[Tuple[str, str]]:
    headers: List[Tuple[str, str]] = []
    for line in lines:
        if b":" not in line:
            raise HttpMessageError(f"header line without colon: {line!r}")
        name, _, value = line.partition(b":")
        if not name or name.strip() != name:
            raise HttpMessageError(f"malformed header name: {name!r}")
        headers.append((name.decode("latin-1"), value.strip().decode("latin-1")))
    if len(headers) > _MAX_HEADERS:
        raise HttpMessageError(f"too many headers ({len(headers)})")
    return headers


def _split_head(data: bytes) -> Tuple[List[bytes], bytes]:
    head, separator, body = data.partition(_CRLF + _CRLF)
    if not separator:
        raise HttpMessageError("message has no header/body separator")
    lines = head.split(_CRLF)
    if not lines or not lines[0]:
        raise HttpMessageError("empty start line")
    return lines, body


@frozen
class HttpRequest:
    """An HTTP/1.1 request."""

    method: str
    path: str
    headers: Tuple[Tuple[str, str], ...] = ()
    body: bytes = b""
    version: str = "HTTP/1.1"

    def header(self, name: str) -> Optional[str]:
        """First header value matching ``name`` (case-insensitive)."""
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return None

    @property
    def host(self) -> Optional[str]:
        """The ``Host`` header — where decoys embed the experiment domain."""
        return self.header("host")

    def encode(self) -> bytes:
        if " " in self.method or " " in self.path:
            raise HttpMessageError("method/path must not contain spaces")
        lines = [f"{self.method} {self.path} {self.version}".encode("latin-1")]
        headers = list(self.headers)
        if self.body and self.header("content-length") is None:
            headers.append(("Content-Length", str(len(self.body))))
        lines.extend(f"{name}: {value}".encode("latin-1") for name, value in headers)
        return _CRLF.join(lines) + _CRLF + _CRLF + self.body

    @classmethod
    def decode(cls, data: bytes) -> "HttpRequest":
        lines, body = _split_head(data)
        parts = lines[0].split(b" ")
        if len(parts) != 3:
            raise HttpMessageError(f"bad request line: {lines[0]!r}")
        method, path, version = (part.decode("latin-1") for part in parts)
        if not version.startswith("HTTP/"):
            raise HttpMessageError(f"bad HTTP version: {version!r}")
        headers = _parse_headers(lines[1:])
        request = cls(method=method, path=path,
                      headers=tuple(headers), body=body, version=version)
        declared = request.header("content-length")
        if declared is not None:
            try:
                expected = int(declared)
            except ValueError as exc:
                raise HttpMessageError(f"bad Content-Length: {declared!r}") from exc
            if expected != len(body):
                raise HttpMessageError(
                    f"Content-Length {expected} != body size {len(body)}"
                )
        return request


@frozen
class HttpResponse:
    """An HTTP/1.1 response."""

    status: int
    reason: str
    headers: Tuple[Tuple[str, str], ...] = ()
    body: bytes = b""
    version: str = "HTTP/1.1"

    def header(self, name: str) -> Optional[str]:
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return None

    def encode(self) -> bytes:
        lines = [f"{self.version} {self.status} {self.reason}".encode("latin-1")]
        headers = list(self.headers)
        if self.header("content-length") is None:
            headers.append(("Content-Length", str(len(self.body))))
        lines.extend(f"{name}: {value}".encode("latin-1") for name, value in headers)
        return _CRLF.join(lines) + _CRLF + _CRLF + self.body

    @classmethod
    def decode(cls, data: bytes) -> "HttpResponse":
        lines, body = _split_head(data)
        parts = lines[0].split(b" ", 2)
        if len(parts) < 2:
            raise HttpMessageError(f"bad status line: {lines[0]!r}")
        version = parts[0].decode("latin-1")
        if not version.startswith("HTTP/"):
            raise HttpMessageError(f"bad HTTP version: {version!r}")
        try:
            status = int(parts[1])
        except ValueError as exc:
            raise HttpMessageError(f"bad status code: {parts[1]!r}") from exc
        reason = parts[2].decode("latin-1") if len(parts) == 3 else ""
        return cls(status=status, reason=reason,
                   headers=tuple(_parse_headers(lines[1:])), body=body, version=version)


def make_get(host: str, path: str = "/", user_agent: str = "repro-decoy/1.0") -> HttpRequest:
    """Build the HTTP decoy: a plain GET with the experiment domain as Host."""
    return HttpRequest(
        method="GET",
        path=path,
        headers=(
            ("Host", host),
            ("User-Agent", user_agent),
            ("Accept", "*/*"),
            ("Connection", "close"),
        ),
    )
