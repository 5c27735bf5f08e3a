"""Real-pixel glyph OCR kernel — renderer + matcher (r4 verdict #2).

Tesseract's binaries are absent from this container, so the reference's
core OCR semantics (/root/reference/src/scraper_app/ocr.py:39-76) were
previously validated only through a payload-classifying stub. This
module closes the realism gap the same way the round-4 image work did
(`functions/imaging.py` pHash-on-real-pixels): the OCR stage now reads
ACTUAL pixels and emits ACTUAL text.

- ``render_text_bmp``: rasterizes a string in a deterministic 5×7
  bitmap font at an integer scale with margins and an x-offset →
  a real BMP file (pure-numpy codec from functions/imaging.py).
- ``GlyphMatcher``: inverts that rendering from pixels alone —
  binarize → column-projection glyph segmentation → scale inference
  from the ink bounding box → block-reduce each segment to the 5×7
  template grid → nearest-template classification by Hamming
  distance. No byte of the input text survives into the matcher: a
  broken renderer, segmentation bug, or template mismatch produces
  the wrong string and fails the oracle gate.

The charset is A–Z, 0–9 and space. Glyph cells are 5 columns wide
with a 1-column advance gap; a space is a 6-cell blank advance, so a
word gap is ≥ 7 blank cells against a 1-cell letter gap. The matcher
splits words at any gap of ≥ ``_WORD_GAP_CELLS`` (4) cells — midway,
so it is unambiguous at any scale.

Matcher contract: a word gap becomes exactly ONE space, however wide
it is, so runs of spaces in the rendered text (and leading/trailing
spaces, which leave no ink) come back single-space normalized.
"""

from __future__ import annotations

import numpy as np

from ..functions.imaging import decode_bmp, encode_bmp, to_gray_u8

# 5×7 font. '#' = ink. Every glyph has ink in its top and bottom row
# (scale inference uses the line's ink bbox) and in every column
# (column-projection segmentation must not split a glyph) — both
# enforced by tests/test_glyph_ocr.py.
_FONT_ROWS = {
    "A": (".###.", "#...#", "#...#", "#####", "#...#", "#...#", "#...#"),
    "B": ("####.", "#...#", "#...#", "####.", "#...#", "#...#", "####."),
    "C": (".###.", "#...#", "#....", "#....", "#....", "#...#", ".###."),
    "D": ("####.", "#...#", "#...#", "#...#", "#...#", "#...#", "####."),
    "E": ("#####", "#....", "#....", "####.", "#....", "#....", "#####"),
    "F": ("#####", "#....", "#....", "####.", "#....", "#....", "#...."),
    "G": (".###.", "#...#", "#....", "#.###", "#...#", "#...#", ".####"),
    "H": ("#...#", "#...#", "#...#", "#####", "#...#", "#...#", "#...#"),
    "I": ("#####", "..#..", "..#..", "..#..", "..#..", "..#..", "#####"),
    "J": ("..###", "...#.", "...#.", "...#.", "...#.", "#..#.", ".##.."),
    "K": ("#...#", "#..#.", "#.#..", "##...", "#.#..", "#..#.", "#...#"),
    "L": ("#....", "#....", "#....", "#....", "#....", "#....", "#####"),
    "M": ("#...#", "##.##", "#.#.#", "#.#.#", "#...#", "#...#", "#...#"),
    "N": ("#...#", "##..#", "#.#.#", "#..##", "#...#", "#...#", "#...#"),
    "O": (".###.", "#...#", "#...#", "#...#", "#...#", "#...#", ".###."),
    "P": ("####.", "#...#", "#...#", "####.", "#....", "#....", "#...."),
    "Q": (".###.", "#...#", "#...#", "#...#", "#.#.#", "#..#.", ".##.#"),
    "R": ("####.", "#...#", "#...#", "####.", "#.#..", "#..#.", "#...#"),
    "S": (".####", "#....", "#....", ".###.", "....#", "....#", "####."),
    "T": ("#####", "..#..", "..#..", "..#..", "..#..", "..#..", "..#.."),
    "U": ("#...#", "#...#", "#...#", "#...#", "#...#", "#...#", ".###."),
    "V": ("#...#", "#...#", "#...#", "#...#", "#...#", ".#.#.", "..#.."),
    "W": ("#...#", "#...#", "#...#", "#.#.#", "#.#.#", "##.##", "#...#"),
    "X": ("#...#", "#...#", ".#.#.", "..#..", ".#.#.", "#...#", "#...#"),
    "Y": ("#...#", "#...#", ".#.#.", "..#..", "..#..", "..#..", "..#.."),
    "Z": ("#####", "....#", "...#.", "..#..", ".#...", "#....", "#####"),
    "0": (".###.", "#...#", "#..##", "#.#.#", "##..#", "#...#", ".###."),
    "1": ("..#..", ".##..", "..#..", "..#..", "..#..", "..#..", "#####"),
    "2": (".###.", "#...#", "....#", "..##.", ".#...", "#....", "#####"),
    "3": (".###.", "#...#", "....#", "..##.", "....#", "#...#", ".###."),
    "4": ("...#.", "..##.", ".#.#.", "#..#.", "#####", "...#.", "...#."),
    "5": ("#####", "#....", "####.", "....#", "....#", "#...#", ".###."),
    "6": (".###.", "#....", "#....", "####.", "#...#", "#...#", ".###."),
    "7": ("#####", "....#", "...#.", "..#..", ".#...", ".#...", ".#..."),
    "8": (".###.", "#...#", "#...#", ".###.", "#...#", "#...#", ".###."),
    "9": (".###.", "#...#", "#...#", ".####", "....#", "....#", ".###."),
}

GLYPH_H, GLYPH_W = 7, 5
ADVANCE = GLYPH_W + 1          # cells per printed glyph
SPACE_CELLS = ADVANCE          # blank cells a space advances
_WORD_GAP_CELLS = 4            # gap ≥ this many cells → one space

CHARSET = frozenset(_FONT_ROWS) | {" "}


def _bitmap(ch: str) -> np.ndarray:
    rows = _FONT_ROWS[ch]
    return np.array([[c == "#" for c in r] for r in rows], bool)


FONT = {ch: _bitmap(ch) for ch in _FONT_ROWS}


def render_text_gray(text: str, scale: int = 2, margin: int = 4,
                     x_off: int = 0) -> np.ndarray:
    """Rasterize ``text`` → grayscale uint8 (ink 0, background 255)."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    bad = set(text) - CHARSET
    if bad:
        raise ValueError(f"chars outside the glyph charset: {bad!r}")
    cells = len(text) * ADVANCE
    h = GLYPH_H * scale + 2 * margin
    w = margin + x_off + cells * scale + margin
    img = np.full((h, w), 255, np.uint8)
    x = margin + x_off
    for ch in text:
        if ch != " ":
            g = np.kron(FONT[ch], np.ones((scale, scale), bool))
            y0 = margin
            img[y0:y0 + GLYPH_H * scale,
                x:x + GLYPH_W * scale][g] = 0
        x += ADVANCE * scale
    return img


def render_text_bmp(text: str, scale: int = 2, margin: int = 4,
                    x_off: int = 0) -> bytes:
    """Rasterize ``text`` into a real BMP file (3-channel gray)."""
    gray = render_text_gray(text, scale, margin, x_off)
    return encode_bmp(np.repeat(gray[:, :, None], 3, axis=2))


class GlyphMatcher:
    """Pixels → text. Templates are flattened once per instance
    (pin one matcher per ACTOR — the stateful-stage contract)."""

    def __init__(self, max_hamming: int = 6):
        self.chars = sorted(FONT)
        self.templates = np.stack(
            [FONT[c].reshape(-1) for c in self.chars]).astype(np.int8)
        self.max_hamming = max_hamming

    def match_gray(self, gray: np.ndarray) -> str:
        """Segment and classify one rendered line; '' when blank.
        Unrecognizable glyphs come back as '?' (never in the charset,
        so a downstream equality gate fails honestly)."""
        ink = gray < 128
        rows = np.flatnonzero(ink.any(axis=1))
        if rows.size == 0:
            return ""
        y0, y1 = int(rows[0]), int(rows[-1]) + 1
        scale = max((y1 - y0) // GLYPH_H, 1)
        cols_any = ink[y0:y1].any(axis=0)
        cc = np.flatnonzero(cols_any)
        # glyph segments = runs of ink columns with gaps < 1 cell... a
        # letter gap is exactly `scale` blank columns, a word gap is
        # ≥ (1+SPACE_CELLS)·scale; split on any blank run ≥ scale/2+1
        breaks = np.flatnonzero(np.diff(cc) > max(scale // 2, 1))
        seg_starts = np.r_[cc[0], cc[breaks + 1]]
        seg_ends = np.r_[cc[breaks], cc[-1]] + 1
        out = []
        prev_end = None
        for s, e in zip(seg_starts, seg_ends):
            if prev_end is not None:
                gap_cells = int(round((s - prev_end) / scale))
                if gap_cells >= _WORD_GAP_CELLS:
                    out.append(" ")
            prev_end = e
            out.append(self._classify(ink[y0:y1, s:e], scale))
        return "".join(out)

    def _classify(self, cell: np.ndarray, scale: int) -> str:
        # block-reduce the segment to the 5×7 template grid: exact for
        # integer scales, majority vote otherwise
        h, w = cell.shape
        grid = np.zeros((GLYPH_H, GLYPH_W), np.int8)
        for gy in range(GLYPH_H):
            ys = slice(gy * h // GLYPH_H, max((gy + 1) * h // GLYPH_H,
                                              gy * h // GLYPH_H + 1))
            for gx in range(GLYPH_W):
                xs = slice(gx * w // GLYPH_W,
                           max((gx + 1) * w // GLYPH_W,
                               gx * w // GLYPH_W + 1))
                block = cell[ys, xs]
                grid[gy, gx] = int(block.mean() >= 0.5)
        d = np.abs(self.templates - grid.reshape(-1)).sum(axis=1)
        best = int(np.argmin(d))
        if int(d[best]) > self.max_hamming:
            return "?"
        return self.chars[best]

    def match_payload(self, payload: bytes) -> str:
        """BMP bytes → text (decode, grayscale, match)."""
        return self.match_gray(to_gray_u8(decode_bmp(payload)))
