"""Line-oriented document parsing shared by the curve, battery-parameter
and scenario configuration file formats.

All formats in this family are plain UTF-8 text, one statement per line,
with ``#`` starting a comment and blank lines ignored.  There are two
grammars:

* blocks (``read_blocks``): a header line ``<opener> <id> <x> <y>``, body
  lines, then ``end``; the curve and battery-parameter files;
* key-values (``read_key_values``): ``key value`` lines; the scenario files.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Iterator

# Datasheet power-of-ten shorthand: "8.29^{-18}" or "8.29^-18" means 8.29e-18.
_POW10 = re.compile(r"^([+-]?\d+(?:\.\d+)?)\^\{?([+-]?\d+)\}?$")


class LineFormatError(ValueError):
    """Malformed line in a line-oriented document; the message names the line."""

    def __init__(self, origin: str, lineno: int, message: str) -> None:
        super().__init__(f"{origin}:{lineno}: {message}")
        self.origin = origin
        self.lineno = lineno


def tokenize(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line_number, tokens)`` for every non-empty, non-comment line."""
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        yield lineno, text.split()


def parse_number(
    token: str,
    origin: str = "<input>",
    lineno: int = 0,
    error: type[LineFormatError] = LineFormatError,
) -> float:
    """Parse a numeric literal, accepting the datasheet shorthand ``m^{e}``.

    The shorthand is rebuilt as a decimal string ("8.29^{-18}" -> "8.29e-18")
    so the result is the correctly rounded double of the printed value.  A
    token that is no number raises error.
    """
    try:
        return float(token)
    except ValueError:
        pass
    match = _POW10.match(token)
    if match is not None:
        return float(f"{match.group(1)}e{match.group(2)}")
    raise error(origin, lineno, f"not a number: {token!r}")


def read_blocks(
    lines: Iterable[str],
    origin: str,
    usage: str,
    error: type[LineFormatError] = LineFormatError,
) -> Iterator[tuple[int, list[str], list[tuple[int, list[str]]]]]:
    """Yield ``(header_line, header_args, body)`` for each block of a document.

    usage is the header's form, e.g. ``"curve <id> <vdc> <vac>"``: its first
    word opens a block and the rest give the number of header arguments.
    body lists ``(line_number, tokens)`` of the lines up to the block's
    ``end``.  A line outside a block that is not such a header, and a block
    without ``end``, raise error.
    """
    opener, *args = usage.split()
    header: list[str] | None = None
    for lineno, tokens in tokenize(lines):
        if header is None:
            if tokens[0] != opener or len(tokens) != 1 + len(args):
                raise error(origin, lineno, f"expected `{usage}`")
            start, header, body = lineno, tokens[1:], []
        elif tokens[0] == "end":
            yield start, header, body
            header = None
        else:
            body.append((lineno, tokens))
    if header is not None:
        raise error(origin, start, f"{opener} {header[0]!r} is missing `end`")


def read_key_values(path: str | Path) -> dict[str, tuple[int, str]]:
    """Read a ``key value`` document into ``{key: (line_number, value)}``;
    a later line with the same key overrides an earlier one."""
    result: dict[str, tuple[int, str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, tokens in tokenize(fh):
            if len(tokens) < 2:
                raise LineFormatError(str(path), lineno, "expected `key value`")
            result[tokens[0]] = (lineno, " ".join(tokens[1:]))
    return result
