"""Firefox image-rendering workload (paper §6.2, Fig. 4).

Models a Wasm-sandboxed libjpeg: Firefox calls into the sandbox once
per *line of pixels* (the paper notes a 1080x720 image costs ~720x2
serialized transitions), and each line runs Huffman-decode + IDCT-ish
per-pixel work.  Compression level scales the per-pixel compute (more
compressed => more compute per output pixel), which is also where
register pressure bites — the paper's explanation for HFI's larger
speedups on compressed images.

Resolutions are scaled down for simulation (documented in
EXPERIMENTS.md): the *ratios* between configurations are what Fig. 4
plots.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..wasm.ir import (
    BinOp,
    BinaryOp,
    Const,
    Function,
    HostCall,
    Load,
    Loop,
    Module,
    StoreGlobal,
    Store,
)

MASK32 = 0xFFFF_FFFF

#: (rows, pixels-per-row) after scaling; paper uses 1920p/480p/240p.
RESOLUTIONS: Dict[str, Tuple[int, int]] = {
    "1920p": (28, 120),
    "480p": (12, 60),
    "240p": (6, 30),
}

#: Per-pixel compute rounds; paper uses best/default/none compression.
COMPRESSION_ROUNDS: Dict[str, int] = {
    "best": 4,
    "default": 2,
    "none": 1,
}


def jpeg_decode(resolution: str = "480p",
                compression: str = "default") -> Module:
    """Build a decode module for one (resolution, compression) cell."""
    rows, px = RESOLUTIONS[resolution]
    rounds = COMPRESSION_ROUNDS[compression]

    # Per-pixel work: coefficient load, `rounds` of butterfly-ish ALU,
    # and the output store.  Locals are declared so the *hottest*
    # accumulator ``s`` is the 10th allocated local: the HFI strategies
    # (no pinned heap-base register) keep it in a register while the
    # guard-page/bounds compilers spill it — the register-pressure
    # effect the paper credits for HFI's rendering speedups, scaling
    # with per-pixel compute (compression level).
    pixel_ops: List = [
        BinOp(BinaryOp.SHL, "a", "px_i", 2),
        Load("coef", "a", size=4),
        BinOp(BinaryOp.MUL, "t", "coef", 5793),     # sqrt(2)<<12
        BinOp(BinaryOp.SHR, "t", "t", 12),
        BinOp(BinaryOp.AND, "t", "t", MASK32),
    ]
    for r in range(rounds):
        pixel_ops += [
            BinOp(BinaryOp.ADD, "t", "t", 1108 + r * 311),
            BinOp(BinaryOp.MUL, "t", "t", 2217 + r * 16),
            BinOp(BinaryOp.SHR, "t", "t", 11),
            BinOp(BinaryOp.AND, "t", "t", MASK32),
            BinOp(BinaryOp.XOR, "t", "t", "coef"),
            BinOp(BinaryOp.XOR, "s", "s", "t"),     # running DC term
        ]
    pixel_ops += [
        BinOp(BinaryOp.AND, "lum", "s", 0xFF),
        BinOp(BinaryOp.ADD, "out", "row_base", "px_i"),
        Store("out", "lum", offset=16384, size=1),
        BinOp(BinaryOp.MUL, "checksum", "checksum", 31),
        BinOp(BinaryOp.ADD, "checksum", "checksum", "lum"),
        BinOp(BinaryOp.XOR, "checksum", "checksum", "t"),
        BinOp(BinaryOp.AND, "checksum", "checksum", MASK32),
        BinOp(BinaryOp.ADD, "px_i", "px_i", 1),
    ]

    body: List = [
        # allocation-order pinning: 9 cooler locals first, then "s"
        Const("row", 0),
        Const("row_base", 0),
        Const("px_i", 0),
        Const("a", 0),
        Const("coef", 0),
        Const("t", 0),
        Const("lum", 0),
        Const("out", 0),
        Const("checksum", 0),
        Const("s", 0),
        Loop(rows, [
            # Firefox calls into the sandbox per row: each iteration
            # pays a full sandbox transition (Fig. 4's amortization).
            HostCall(host_cycles=12),
            BinOp(BinaryOp.MUL, "row_base", "row", px),
            Const("px_i", 0),
            Loop(px, pixel_ops),
            BinOp(BinaryOp.ADD, "row", "row", 1),
        ]),
        StoreGlobal("result", "checksum"),
    ]
    coeffs = bytes(((i * 197 + 31) & 0xFF) for i in range(4 * px * 4))
    return Module(f"jpeg-{resolution}-{compression}",
                  [Function("main", body)],
                  globals=["result"], data=coeffs)
