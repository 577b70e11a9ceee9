"""SPEC CPU 2006-like workloads (paper §6.1, Fig. 3).

Eleven synthetic programs, one per benchmark in the paper's Fig. 3,
each parameterized to its well-known character:

==============  ========================================================
400.perlbench   interpreter dispatch: table loads + multiway branches
401.bzip2       block compression: streaming bytes + compare-heavy
403.gcc         pointer-rich IR walking, several distinct functions
429.mcf         memory-bound pointer chasing, cache-hostile working set
445.gobmk       *large code footprint* (many board-evaluation
                functions) — the i-cache-pressure case where hmov's
                longer encoding makes HFI slightly slower (§6.1)
456.hmmer       dynamic-programming inner loop: dense array sweeps
458.sjeng       game tree: tables + branchy evaluation
462.libquantum  streaming XOR over a large gate array
464.h264ref     motion compensation: block copies, store-heavy
473.astar       graph search: chasing + branches
483.xalancbmk   string/table transformation, branchy
==============  ========================================================

These are not the SPEC programs (we cannot ship them); they are
workloads with matching *instruction mixes* so the relative cost of
isolation strategies — which is all Fig. 3 compares — is reproduced.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

from ..wasm.ir import (
    BinOp,
    BinaryOp,
    Call,
    Cmp,
    Const,
    Function,
    If,
    Load,
    Loop,
    Module,
    Move,
    Store,
    StoreGlobal,
)

MASK32 = 0xFFFF_FFFF


def _chain_data(n_nodes: int, stride: int, seed: int) -> bytes:
    """A random pointer-chase permutation: node i stores the byte
    offset of its successor."""
    rng = random.Random(seed)
    order = list(range(1, n_nodes))
    rng.shuffle(order)
    order = [0] + order
    data = bytearray(n_nodes * stride)
    for pos in range(n_nodes):
        cur = order[pos]
        nxt = order[(pos + 1) % n_nodes]
        data[cur * stride:cur * stride + 8] = (nxt * stride).to_bytes(
            8, "little")
    return bytes(data)


def perlbench(scale: int = 1) -> Module:
    """Interpreter loop: opcode fetch, 8-way dispatch, operand loads."""
    dispatch: List = []
    for v in range(8):
        handler = [
            Load("operand", "sp", offset=512),
            BinOp(BinaryOp.ADD, "acc", "acc", "operand"),
            BinOp(BinaryOp.AND, "acc", "acc", MASK32),
            BinOp(BinaryOp.ADD, "sp", "sp", (v & 3) * 8),
            BinOp(BinaryOp.AND, "sp", "sp", 0x1FF8),
        ]
        dispatch = [If("op", Cmp.EQ, v, handler, dispatch)]
    body = [
        Const("x", 42),
        Const("acc", 0),
        Const("sp", 0),
        Const("pc", 0),
        Loop(260 * scale, [
            Load("op", "pc", size=1),
            BinOp(BinaryOp.AND, "op", "op", 7),
            BinOp(BinaryOp.ADD, "pc", "pc", 1),
            BinOp(BinaryOp.AND, "pc", "pc", 0x1FF),
        ] + dispatch),
        StoreGlobal("result", "acc"),
    ]
    data = bytes((i * 131 + 17) & 0xFF for i in range(512))
    return Module("400.perlbench", [Function("main", body)],
                  globals=["result"], data=data)


def bzip2(scale: int = 1) -> Module:
    """Streaming byte transform with run-length-ish compares."""
    body = [
        Const("i", 0),
        Const("prev", 0),
        Const("runs", 0),
        Loop(420 * scale, [
            BinOp(BinaryOp.AND, "a", "i", 0x3FFF),
            Load("ch", "a", size=1),
            If("ch", Cmp.EQ, "prev",
               [BinOp(BinaryOp.ADD, "runs", "runs", 1)],
               [Move("prev", "ch")]),
            BinOp(BinaryOp.XOR, "t", "ch", "prev"),
            BinOp(BinaryOp.SHL, "t", "t", 1),
            Store("a", "t", offset=16384, size=1),
            BinOp(BinaryOp.ADD, "i", "i", 7),
        ]),
        StoreGlobal("result", "runs"),
    ]
    data = bytes((i // 3) & 0xFF for i in range(16384))
    return Module("401.bzip2", [Function("main", body)],
                  globals=["result"], data=data)


def gcc(scale: int = 1) -> Module:
    """IR walking: several passes (functions) over a node array."""
    def pass_fn(name, mult, off):
        return Function(name, [
            Const("n", 0),
            Loop(40, [
                BinOp(BinaryOp.SHL, "a", "n", 4),
                Load("kind", "a", size=4),
                BinOp(BinaryOp.MUL, "kind", "kind", mult),
                BinOp(BinaryOp.AND, "kind", "kind", MASK32),
                Store("a", "kind", offset=off, size=4),
                If("kind", Cmp.GT, 1 << 30,
                   [Store("a", 0, offset=8, size=4)]),
                BinOp(BinaryOp.ADD, "n", "n", 1),
            ]),
        ])
    passes = [pass_fn(f"pass{i}", 2654435761 + i * 2, 4 + (i % 2) * 8)
              for i in range(6)]
    body = [
        Loop(8 * scale, [Call(f"pass{i}") for i in range(6)]),
        Const("z", 0),
        Load("z", 0, size=4),
        StoreGlobal("result", "z"),
    ]
    data = bytes((i * 37 + 5) & 0xFF for i in range(40 * 16))
    return Module("403.gcc", [Function("main", body)] + passes,
                  globals=["result"], data=data)


def mcf(scale: int = 1) -> Module:
    """Cache-hostile pointer chasing over a ~1 MiB arc array, with the
    simplex-style potential accounting that keeps mcf's register file
    full (nine live locals, as the real inner loop has)."""
    n_nodes, stride = 8192, 128
    body = [
        Const("p", 0), Const("acc", 0), Const("cost", 0),
        Const("dist", 0), Const("flow", 0), Const("red", 0),
        Const("pot", 0), Const("t1", 0), Const("t2", 0),
        Loop(900 * scale, [
            Load("p", "p"),                    # follow successor
            Load("cost", "p", offset=8),
            BinOp(BinaryOp.ADD, "dist", "cost", "flow"),
            BinOp(BinaryOp.SHR, "flow", "dist", 1),
            BinOp(BinaryOp.XOR, "red", "red", "dist"),
            BinOp(BinaryOp.ADD, "pot", "pot", "red"),
            BinOp(BinaryOp.AND, "pot", "pot", MASK32),
            BinOp(BinaryOp.AND, "t1", "pot", 0xFF),
            BinOp(BinaryOp.ADD, "t2", "t1", "flow"),
            BinOp(BinaryOp.ADD, "acc", "acc", "cost"),
            BinOp(BinaryOp.ADD, "acc", "acc", "t2"),
            BinOp(BinaryOp.AND, "acc", "acc", MASK32),
        ]),
        StoreGlobal("result", "acc"),
    ]
    return Module("429.mcf", [Function("main", body)],
                  globals=["result"],
                  data=_chain_data(n_nodes, stride, seed=429),
                  memory_pages=16)


def gobmk(scale: int = 1, n_evals: int = 72) -> Module:
    """Go engine: many distinct evaluation functions — the program's
    code footprint exceeds L1i, so instruction-encoding size matters
    (the §6.1 hmov effect)."""
    evals = []
    for i in range(n_evals):
        ops: List = [Const("h", i + 1)]
        for j in range(6):
            ops += [
                BinOp(BinaryOp.ADD, "pos", "h", (i * 6 + j) * 16),
                BinOp(BinaryOp.AND, "pos", "pos", 0x7FFF),
                Load("st", "pos", size=1),
                BinOp(BinaryOp.MUL, "h", "h", 31),
                BinOp(BinaryOp.ADD, "h", "h", "st"),
                BinOp(BinaryOp.AND, "h", "h", MASK32),
                Store("pos", "h", offset=32768, size=1),
            ]
        ops += [
            If("h", Cmp.GT, 1 << 29,
               [Store("pos", 1, offset=8192, size=1)]),
        ]
        evals.append(Function(f"eval{i}", ops))
    body = [
        Loop(3 * scale, [Call(f"eval{i}") for i in range(n_evals)]),
        Const("z", 0),
        Load("z", 0, size=1),
        StoreGlobal("result", "z"),
    ]
    data = bytes((i * 11 + 3) & 0xFF for i in range(32768))
    return Module("445.gobmk", [Function("main", body)] + evals,
                  globals=["result"], data=data)


def hmmer(scale: int = 1) -> Module:
    """Profile-HMM DP inner loop: dense sweeps with max-selects."""
    body = [
        Const("i", 0),
        Const("best", 0),
        Loop(300 * scale, [
            BinOp(BinaryOp.AND, "col", "i", 0xFFF),
            BinOp(BinaryOp.SHL, "a", "col", 2),
            Load("m", "a", size=4),
            Load("ins", "a", offset=16384, size=4),
            BinOp(BinaryOp.ADD, "sc", "m", "ins"),
            BinOp(BinaryOp.AND, "sc", "sc", MASK32),
            If("sc", Cmp.GT, "best", [Move("best", "sc")]),
            Store("a", "sc", offset=32768, size=4),
            BinOp(BinaryOp.ADD, "i", "i", 1),
        ]),
        StoreGlobal("result", "best"),
    ]
    data = bytes((i * 73 + 11) & 0xFF for i in range(32768))
    return Module("456.hmmer", [Function("main", body)],
                  globals=["result"], data=data)


def sjeng(scale: int = 1) -> Module:
    """Chess search: hash-table probes + branchy evaluation."""
    body = [
        Const("x", 0xBEEF),
        Const("nodes", 0),
        Const("cut", 0),
        Loop(280 * scale, [
            BinOp(BinaryOp.MUL, "x", "x", 2654435761),
            BinOp(BinaryOp.ADD, "x", "x", 0x9E37),
            BinOp(BinaryOp.AND, "x", "x", MASK32),
            BinOp(BinaryOp.SHR, "slot", "x", 8),
            BinOp(BinaryOp.AND, "slot", "slot", 0x3FF8),
            Load("entry", "slot"),
            If("entry", Cmp.EQ, 0,
               [Store("slot", "x"),
                BinOp(BinaryOp.ADD, "nodes", "nodes", 1)],
               [BinOp(BinaryOp.ADD, "cut", "cut", 1)]),
        ]),
        BinOp(BinaryOp.SHL, "r", "nodes", 16),
        BinOp(BinaryOp.OR, "r", "r", "cut"),
        StoreGlobal("result", "r"),
    ]
    return Module("458.sjeng", [Function("main", body)],
                  globals=["result"])


def libquantum(scale: int = 1) -> Module:
    """Quantum gate simulation: streaming XOR over the state vector."""
    body = [
        Const("i", 0), Const("acc", 0), Const("idx", 0),
        Const("a", 0), Const("amp", 0), Const("phase", 0),
        Const("ctrl", 0), Const("tgt", 0), Const("par", 0),
        Loop(520 * scale, [
            BinOp(BinaryOp.AND, "idx", "i", 0x7FFF),
            BinOp(BinaryOp.SHL, "a", "idx", 3),
            BinOp(BinaryOp.AND, "a", "a", 0x3FFF8),
            Load("amp", "a"),
            BinOp(BinaryOp.XOR, "amp", "amp", 0x100000),
            Store("a", "amp"),
            BinOp(BinaryOp.SHR, "ctrl", "amp", 5),
            BinOp(BinaryOp.AND, "tgt", "ctrl", 0x1F),
            BinOp(BinaryOp.XOR, "phase", "phase", "tgt"),
            BinOp(BinaryOp.ADD, "par", "par", "phase"),
            BinOp(BinaryOp.AND, "par", "par", MASK32),
            BinOp(BinaryOp.ADD, "acc", "acc", 1),
            BinOp(BinaryOp.ADD, "i", "i", 27),
        ]),
        BinOp(BinaryOp.XOR, "acc", "acc", "par"),
        StoreGlobal("result", "acc"),
    ]
    return Module("462.libquantum", [Function("main", body)],
                  globals=["result"], memory_pages=8)


def h264ref(scale: int = 1) -> Module:
    """Motion compensation: 8-byte block copies with interpolation."""
    body = [
        Const("blk", 0),
        Const("acc", 0),
        Loop(110 * scale, [
            BinOp(BinaryOp.AND, "src", "blk", 0x3FFF),
            Const("row", 0),
            Loop(4, [
                BinOp(BinaryOp.SHL, "ra", "row", 3),
                BinOp(BinaryOp.ADD, "sa", "src", "ra"),
                Load("p0", "sa"),
                Load("p1", "sa", offset=8),
                BinOp(BinaryOp.ADD, "mix", "p0", "p1"),
                BinOp(BinaryOp.SHR, "mix", "mix", 1),
                Store("sa", "mix", offset=16384),
                BinOp(BinaryOp.ADD, "acc", "acc", "mix"),
                BinOp(BinaryOp.AND, "acc", "acc", MASK32),
                BinOp(BinaryOp.ADD, "row", "row", 1),
            ]),
            BinOp(BinaryOp.ADD, "blk", "blk", 67),
        ]),
        StoreGlobal("result", "acc"),
    ]
    data = bytes((i * 201 + 7) & 0xFF for i in range(16384))
    return Module("464.h264ref", [Function("main", body)],
                  globals=["result"], data=data)


def astar(scale: int = 1) -> Module:
    """Path search: successor chasing + heuristic branches."""
    n_nodes, stride = 4096, 64
    body = [
        Const("p", 0), Const("open_cnt", 0), Const("g", 0),
        Const("h", 0), Const("f", 0), Const("best", 0),
        Const("tie", 0), Const("depth", 0), Const("wsum", 0),
        Loop(650 * scale, [
            Load("p", "p"),
            Load("h", "p", offset=8),
            BinOp(BinaryOp.ADD, "f", "g", "h"),
            BinOp(BinaryOp.AND, "f", "f", MASK32),
            BinOp(BinaryOp.XOR, "tie", "tie", "f"),
            BinOp(BinaryOp.ADD, "depth", "depth", 1),
            BinOp(BinaryOp.ADD, "wsum", "wsum", "h"),
            BinOp(BinaryOp.AND, "wsum", "wsum", MASK32),
            If("f", Cmp.GT, 1 << 20,
               [Const("g", 0)],
               [BinOp(BinaryOp.ADD, "g", "g", 3),
                BinOp(BinaryOp.ADD, "open_cnt", "open_cnt", 1)]),
            If("f", Cmp.GT, "best", [Move("best", "f")]),
        ]),
        BinOp(BinaryOp.XOR, "open_cnt", "open_cnt", "tie"),
        BinOp(BinaryOp.ADD, "open_cnt", "open_cnt", "wsum"),
        BinOp(BinaryOp.AND, "open_cnt", "open_cnt", MASK32),
        StoreGlobal("result", "open_cnt"),
    ]
    return Module("473.astar", [Function("main", body)],
                  globals=["result"],
                  data=_chain_data(n_nodes, stride, seed=473),
                  memory_pages=8)


def xalancbmk(scale: int = 1) -> Module:
    """XSLT-ish transformation: byte classification + table rewrite."""
    body = [
        Const("i", 0),
        Const("out", 4096),
        Const("emitted", 0),
        Loop(380 * scale, [
            BinOp(BinaryOp.AND, "ia", "i", 0xFFF),
            Load("ch", "ia", size=1),
            BinOp(BinaryOp.AND, "key", "ch", 0xFF),
            Load("sub", "key", offset=8192, size=1),
            If("sub", Cmp.NE, 0,
               [Store("out", "sub", size=1),
                BinOp(BinaryOp.ADD, "out", "out", 1),
                BinOp(BinaryOp.AND, "out", "out", 0x1FFF),
                BinOp(BinaryOp.ADD, "emitted", "emitted", 1)]),
            BinOp(BinaryOp.ADD, "i", "i", 1),
        ]),
        StoreGlobal("result", "emitted"),
    ]
    table = bytearray(4096 + 4096 + 256)
    for i in range(4096):
        table[i] = (i * 53 + 1) & 0xFF
    for c in range(256):
        table[8192 + c] = c ^ 0x20 if 64 <= c < 128 else 0
    return Module("483.xalancbmk", [Function("main", body)],
                  globals=["result"], data=bytes(table[:4096]) + bytes(4096)
                  + bytes(table[8192:8192 + 256]))


#: Fig. 3's x-axis, in order.
SPEC_BENCHMARKS: Dict[str, Callable[[int], Module]] = {
    "400.perlbench": perlbench,
    "401.bzip2": bzip2,
    "403.gcc": gcc,
    "429.mcf": mcf,
    "445.gobmk": gobmk,
    "456.hmmer": hmmer,
    "458.sjeng": sjeng,
    "462.libquantum": libquantum,
    "464.h264ref": h264ref,
    "473.astar": astar,
    "483.xalancbmk": xalancbmk,
}
