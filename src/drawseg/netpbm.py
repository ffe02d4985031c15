"""Binary PGM (P5) and PPM (P6) reading and writing.

Writers emit the canonical header "P5\\n<w> <h>\\n<maxval>\\n" followed by
raw bytes. The reader tolerates comments and arbitrary whitespace and
reports the byte offset of whatever it rejects. Only maxval <= 255
(one byte per sample) is supported.
"""
from __future__ import annotations

import numpy as np


def write_pgm(path, pixels: np.ndarray, maxval: int = 255) -> None:
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ValueError(f"PGM wants a 2-D array, got shape {pixels.shape}")
    if not 1 <= maxval <= 255:
        raise ValueError(f"maxval must be in [1, 255], got {maxval}")
    if pixels.min() < 0 or pixels.max() > maxval:
        raise ValueError(f"pixel values outside [0, {maxval}]")
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        f.write(pixels.astype(np.uint8).tobytes())


def write_ppm(path, rgb: np.ndarray) -> None:
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"PPM wants an H x W x 3 array, got shape {rgb.shape}")
    h, w, _ = rgb.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(rgb.astype(np.uint8).tobytes())


class _Scanner:
    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.pos = 0
        self.path = path

    def fail(self, why: str):
        raise ValueError(f"{self.path}: {why} at byte {self.pos}")

    def token(self) -> bytes:
        raw, n = self.raw, len(self.raw)
        while self.pos < n:
            c = raw[self.pos]
            if c == ord("#"):
                while self.pos < n and raw[self.pos] not in b"\r\n":
                    self.pos += 1
            elif c in b" \t\r\n":
                self.pos += 1
            else:
                break
        if self.pos >= n:
            self.fail("unexpected end of header")
        start = self.pos
        while self.pos < n and raw[self.pos] not in b" \t\r\n":
            self.pos += 1
        return raw[start:self.pos]

    def int_token(self, what: str) -> int:
        """The next token as a decimal integer >= 1; else fail at the token's start."""
        tok = self.token()
        try:
            value = int(tok) if tok.isdigit() else 0   # int() also takes b"+2" and b"1_0"
        except ValueError:   # more digits than int() converts
            value = 0
        if value < 1:
            self.pos -= len(tok)
            self.fail(f"malformed {what} {tok!r}: not an integer >= 1")
        return value


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Return (H x W uint8 array, maxval). Rejects anything but binary P5."""
    with open(path, "rb") as f:
        raw = f.read()
    s = _Scanner(raw, path)
    magic = s.token()
    if magic != b"P5":
        s.pos -= len(magic)
        s.fail(f"not a binary PGM (magic {magic!r})")
    w = s.int_token("width")
    h = s.int_token("height")
    maxval = s.int_token("maxval")
    if maxval > 255:
        s.fail(f"unsupported maxval {maxval}")
    if s.pos >= len(raw) or raw[s.pos] not in b" \t\r\n":
        s.fail("missing whitespace after maxval")
    s.pos += 1
    need = w * h
    data = raw[s.pos:]
    if len(data) != need:
        s.fail(f"payload holds {len(data)} bytes, expected {need}")
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(h, w)
    if pixels.max(initial=0) > maxval:
        bad = int(np.argmax(pixels.reshape(-1) > maxval))
        s.pos += bad
        s.fail(f"pixel value {pixels.reshape(-1)[bad]} exceeds maxval {maxval}")
    return pixels.copy(), maxval
