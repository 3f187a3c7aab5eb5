"""The plain-text format shared by the engine dumps and the predictor file.

Floats are written with 17 significant digits, which round-trips every
double, so a reloaded engine predicts bit for bit what the dumped one did.
Loaders read a dump as numbered non-blank lines; truncated, garbled or
non-finite input raises ValueError naming its 1-based line.
"""

from __future__ import annotations

import math

import numpy as np


def fmt(v: float) -> str:
    return format(float(v), ".17g")


class Lines:
    """The non-blank lines of a dump as (1-based number, text), taken in order."""

    def __init__(self, text: str):
        split = text.splitlines()
        self._lines = [numbered for numbered in enumerate(split, 1) if numbered[1].strip()]
        self._next = 0
        self._end = len(split) + 1

    def take(self, what: str):
        if self._next == len(self._lines):
            raise ValueError(f"line {self._end}: dump ends before {what}")
        self._next += 1
        return self._lines[self._next - 1]

    def finish(self, what: str):
        if self._next < len(self._lines):
            no = self._lines[self._next][0]
            raise ValueError(f"line {no}: trailing content after {what}")

    def rows(self, count: int, width: int, what) -> np.ndarray:
        """The next ``count`` lines as a (count, width) array of finite
        numbers; a bad or missing row r raises ``floats``' or ``take``'s
        error for ``what(r)``."""
        block = self._lines[self._next:self._next + count]
        split = [line.split() for _, line in block]
        if len(split) == count and all(len(tokens) == width for tokens in split):
            try:
                values = np.array([float(tok) for tokens in split for tok in tokens])
            except ValueError:
                pass
            else:
                if np.isfinite(values).all():
                    self._next += count
                    return values.reshape(count, width)
        # a row is short, long, missing or bad: read row by row to name it
        return np.array([floats(self.take(what(r)), width) for r in range(count)])


def tail(lines: list, start: int, stop: int | None = None) -> str:
    """``lines[start:stop]`` as a text that keeps the whole file's line
    numbers: the lines before ``start`` become blank, and loaders skip those.
    Every line keeps its newline, so a blank last line is kept too and a dump
    cut short names the line after the slice."""
    body = lines[start:stop]
    return "\n" * start + "\n".join(body) + "\n" * bool(body)


def expect(numbered, header: str):
    no, line = numbered
    if line.split() != header.split():
        raise ValueError(f"line {no}: expected '{header}'")


def keyed(numbered, key: str):
    """(number, rest) of a line whose first word must be ``key``."""
    no, line = numbered
    first, _, rest = line.strip().partition(" ")
    if first != key:
        raise ValueError(f"line {no}: expected '{key}'")
    return no, rest


def integer(no: int, token: str, low: int = 0, high: int | None = None) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ValueError(f"line {no}: {token!r} is not an integer") from None
    if value < low or (high is not None and value > high):
        raise ValueError(f"line {no}: {value} is out of range")
    return value


def number(no: int, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"line {no}: {token!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"line {no}: non-finite value {token}")
    return value


def floats(numbered, count: int | None = None) -> np.ndarray:
    """The line's finite numbers; ``count`` of them unless it is None."""
    no, line = numbered
    tokens = line.split()
    if count is not None and len(tokens) != count:
        raise ValueError(f"line {no}: expected {count} values, got {len(tokens)}")
    try:
        values = [float(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"line {no}: not a number") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"line {no}: non-finite value")
    return np.array(values)
