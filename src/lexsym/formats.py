"""Graph input and output: edge-list text both ways, graph6 read only.

Text format: first significant line is the vertex count, each following
line is one edge `u v` (0-based).  Lines starting with `#` are comments.
Duplicate edges and loops are rejected.  A line starting with
`>>graph6<<` switches to graph6 decoding.
"""

from __future__ import annotations

import hashlib
import sys

from .graphs import Graph, GraphError

GRAPH6_HEADER = ">>graph6<<"


class FormatError(GraphError):
    """Raised when graph input cannot be parsed."""


def parse_graph(text: str, fmt: str = "text") -> Graph:
    if fmt not in ("text", "graph6"):
        raise FormatError(f"unknown format {fmt!r}")
    stripped = text.lstrip()
    if stripped.startswith(GRAPH6_HEADER):
        body = stripped[len(GRAPH6_HEADER):].strip().splitlines()
        return decode_graph6(body[0] if body else "")
    if fmt == "graph6":
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                return decode_graph6(line)
        raise FormatError("no graph6 line found")
    return _parse_text(text)


def _parse_text(text: str) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise FormatError(f"line {lineno}: expected vertex count, got {raw!r}")
            try:
                n = int(parts[0])
            except ValueError:
                raise FormatError(f"line {lineno}: vertex count is not an integer") from None
            if n < 0:
                raise FormatError(f"line {lineno}: negative vertex count")
            if n > sys.maxsize:
                raise FormatError(f"line {lineno}: vertex count too large")
            continue
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected edge 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: edge endpoints are not integers") from None
        if u == v:
            raise FormatError(f"line {lineno}: loop edge {u} {v} rejected")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {lineno}: edge {u} {v} out of range for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(key)
        edges.append((u, v))
    if n is None:
        raise FormatError("empty input: missing vertex count line")
    return Graph.from_edges(n, edges)


def write_graph(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def decode_graph6(line: str) -> Graph:
    """Decode one graph6 string (without the optional `>>graph6<<` header)."""
    data = [ord(ch) - 63 for ch in line.strip()]
    if any(b < 0 or b > 63 for b in data):
        raise FormatError(f"invalid graph6 byte in {line!r}")
    if not data:
        raise FormatError("empty graph6 string")
    if data[0] <= 62:
        n, data = data[0], data[1:]
    elif len(data) >= 4 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        data = data[4:]
    elif len(data) >= 8:
        n = 0
        for b in data[2:8]:
            n = (n << 6) | b
        data = data[8:]
    else:
        raise FormatError(f"truncated graph6 size field in {line!r}")
    nbits = n * (n - 1) // 2
    if len(data) != (nbits + 5) // 6:
        raise FormatError(f"graph6 body length mismatch for n={n}")
    bits = []
    for b in data:
        for shift in range(5, -1, -1):
            bits.append(b >> shift & 1)
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                edges.append((u, v))
            k += 1
    return Graph.from_edges(n, edges)


def content_hash(g: Graph) -> str:
    """Short content hash of the labelled graph, used to name report leaves."""
    payload = write_graph(g).encode()
    return hashlib.sha256(payload).hexdigest()[:8]
