"""Sightglass-like microbenchmarks (paper §5.2, Fig. 2).

Sixteen small Wasm-friendly kernels mirroring the Sightglass suite the
paper uses to cross-validate gem5-simulated HFI against its software
emulation: cryptography primitives (ARX rounds), math, string and
table manipulation, and control flow.  Each builder returns a wir
:class:`~repro.wasm.ir.Module` that writes a checksum into the
``result`` global, so strategy equivalence is machine-checkable.

``scale`` multiplies iteration counts; the defaults keep each kernel
in the few-thousand-instruction range so the full suite runs on the
cycle simulator in seconds (gem5's "over a day" exclusions do not
apply to us, but proportionality does).
"""

from __future__ import annotations

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
    LoadGlobal,
    Loop,
    Module,
    Move,
    Store,
    StoreGlobal,
)

MASK32 = 0xFFFF_FFFF


def rotl(var: str, amount: int, bits: int = 32) -> List:
    """Emit a rotate-left of ``var`` by ``amount`` within ``bits``.

    Uses two shared scratch temps — their live range is only these
    three ops, so reuse keeps kernels from drowning in locals.
    """
    hi, lo = "rot_hi", "rot_lo"
    ops = [
        BinOp(BinaryOp.SHL, hi, var, amount),
        BinOp(BinaryOp.SHR, lo, var, bits - amount),
        BinOp(BinaryOp.OR, var, hi, lo),
    ]
    if bits == 32:
        ops.append(BinOp(BinaryOp.AND, var, var, MASK32))
    return ops


def _finish(acc: str) -> List:
    return [StoreGlobal("result", acc)]


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def fib2(scale: int = 1) -> Module:
    """Iterative Fibonacci — pure ALU and a predictable loop."""
    body = [
        Const("acc", 0),
        Loop(20 * scale, [
            Const("a", 0), Const("b", 1),
            Loop(40, [
                BinOp(BinaryOp.ADD, "c", "a", "b"),
                Move("a", "b"),
                Move("b", "c"),
                BinOp(BinaryOp.AND, "b", "b", MASK32),
            ]),
            BinOp(BinaryOp.ADD, "acc", "acc", "a"),
            BinOp(BinaryOp.AND, "acc", "acc", MASK32),
        ]),
    ] + _finish("acc")
    return Module("fib2", [Function("main", body)], globals=["result"])


def nestedloop(scale: int = 1) -> Module:
    """Three nested counted loops — loop-overhead dominated."""
    body = [
        Const("acc", 0),
        Loop(6 * scale, [
            Loop(12, [
                Loop(15, [
                    BinOp(BinaryOp.ADD, "acc", "acc", 1),
                ]),
            ]),
        ]),
    ] + _finish("acc")
    return Module("nestedloop", [Function("main", body)],
                  globals=["result"])


def sieve(scale: int = 1) -> Module:
    """Sieve of Eratosthenes over linear memory — store heavy."""
    n = 600 * scale
    body = [
        Const("i", 2),
        Loop(23, [                       # primes up to sqrt(600*scale)~24
            BinOp(BinaryOp.MUL, "start", "i", "i"),
            If("start", Cmp.LT, n, [
                BinOp(BinaryOp.SUB, "span", n, "start"),
                BinOp(BinaryOp.DIV, "trips", "span", "i"),
                BinOp(BinaryOp.ADD, "trips", "trips", 1),
                Move("j", "start"),
                Loop("trips", [
                    Store("j", 1, size=1),
                    BinOp(BinaryOp.ADD, "j", "j", "i"),
                ]),
            ]),
            BinOp(BinaryOp.ADD, "i", "i", 1),
        ]),
        # count survivors in [2, n)
        Const("count", 0),
        Const("k", 2),
        Loop(n - 2, [
            Load("flag", "k", size=1),
            If("flag", Cmp.EQ, 0, [
                BinOp(BinaryOp.ADD, "count", "count", 1),
            ]),
            BinOp(BinaryOp.ADD, "k", "k", 1),
        ]),
    ] + _finish("count")
    return Module("sieve", [Function("main", body)], globals=["result"])


def random_lcg(scale: int = 1) -> Module:
    """A 32-bit LCG — multiply/add chains."""
    body = [
        Const("x", 123456789),
        Const("acc", 0),
        Loop(400 * scale, [
            BinOp(BinaryOp.MUL, "x", "x", 1103515245),
            BinOp(BinaryOp.ADD, "x", "x", 12345),
            BinOp(BinaryOp.AND, "x", "x", MASK32),
            BinOp(BinaryOp.XOR, "acc", "acc", "x"),
        ]),
    ] + _finish("acc")
    return Module("random", [Function("main", body)], globals=["result"])


def memmove(scale: int = 1) -> Module:
    """Bulk 8-byte copies — load/store balanced, streaming."""
    n = 220 * scale
    body = [
        # build a source pattern
        Const("i", 0),
        Loop(n, [
            BinOp(BinaryOp.SHL, "a", "i", 3),
            BinOp(BinaryOp.MUL, "v", "i", 2654435761),
            BinOp(BinaryOp.AND, "v", "v", MASK32),
            Store("a", "v"),
            BinOp(BinaryOp.ADD, "i", "i", 1),
        ]),
        # copy it 8 KiB higher
        Const("i", 0),
        Const("acc", 0),
        Loop(n, [
            BinOp(BinaryOp.SHL, "a", "i", 3),
            Load("v", "a"),
            Store("a", "v", offset=32768),
            BinOp(BinaryOp.ADD, "acc", "acc", "v"),
            BinOp(BinaryOp.AND, "acc", "acc", MASK32),
            BinOp(BinaryOp.ADD, "i", "i", 1),
        ]),
    ] + _finish("acc")
    return Module("memmove", [Function("main", body)], globals=["result"],
                  memory_pages=2)


def base64(scale: int = 1) -> Module:
    """Base64-style encode: 6-bit splits + table lookups + stores."""
    # table at [0,64): identity-ish alphabet; input at [256,...)
    data = bytes((i * 7 + 33) & 0xFF for i in range(64))
    n_groups = 60 * scale
    body = [
        # synthesize input bytes
        Const("i", 0),
        Loop(n_groups * 3, [
            BinOp(BinaryOp.MUL, "v", "i", 31),
            BinOp(BinaryOp.AND, "v", "v", 0xFF),
            Store("i", "v", offset=256, size=1),
            BinOp(BinaryOp.ADD, "i", "i", 1),
        ]),
        Const("g", 0),
        Const("acc", 0),
        Loop(n_groups, [
            BinOp(BinaryOp.MUL, "in_off", "g", 3),
            Load("b0", "in_off", offset=256, size=1),
            Load("b1", "in_off", offset=257, size=1),
            Load("b2", "in_off", offset=258, size=1),
            # 24-bit group
            BinOp(BinaryOp.SHL, "grp", "b0", 16),
            BinOp(BinaryOp.SHL, "m1", "b1", 8),
            BinOp(BinaryOp.OR, "grp", "grp", "m1"),
            BinOp(BinaryOp.OR, "grp", "grp", "b2"),
            # four 6-bit indices -> table lookups
            BinOp(BinaryOp.SHR, "i0", "grp", 18),
            BinOp(BinaryOp.AND, "i0", "i0", 63),
            Load("c0", "i0", size=1),
            BinOp(BinaryOp.SHR, "i1", "grp", 12),
            BinOp(BinaryOp.AND, "i1", "i1", 63),
            Load("c1", "i1", size=1),
            BinOp(BinaryOp.SHR, "i2", "grp", 6),
            BinOp(BinaryOp.AND, "i2", "i2", 63),
            Load("c2", "i2", size=1),
            BinOp(BinaryOp.AND, "i3", "grp", 63),
            Load("c3", "i3", size=1),
            BinOp(BinaryOp.MUL, "out_off", "g", 4),
            Store("out_off", "c0", offset=4096, size=1),
            Store("out_off", "c1", offset=4097, size=1),
            Store("out_off", "c2", offset=4098, size=1),
            Store("out_off", "c3", offset=4099, size=1),
            BinOp(BinaryOp.ADD, "acc", "acc", "c0"),
            BinOp(BinaryOp.ADD, "acc", "acc", "c3"),
            BinOp(BinaryOp.AND, "acc", "acc", MASK32),
            BinOp(BinaryOp.ADD, "g", "g", 1),
        ]),
    ] + _finish("acc")
    return Module("base64", [Function("main", body)], globals=["result"],
                  data=data, memory_pages=2)


def ctype(scale: int = 1) -> Module:
    """Character classification via a 256-entry table + branches."""
    table = bytes((1 if 48 <= c <= 57 else 2 if 65 <= c <= 122 else 0)
                  for c in range(256))
    body = [
        Const("i", 0),
        Const("digits", 0),
        Const("alpha", 0),
        Loop(500 * scale, [
            BinOp(BinaryOp.MUL, "ch", "i", 97),
            BinOp(BinaryOp.AND, "ch", "ch", 0xFF),
            Load("cls", "ch", size=1),
            If("cls", Cmp.EQ, 1,
               [BinOp(BinaryOp.ADD, "digits", "digits", 1)],
               [If("cls", Cmp.EQ, 2,
                   [BinOp(BinaryOp.ADD, "alpha", "alpha", 1)])]),
            BinOp(BinaryOp.ADD, "i", "i", 1),
        ]),
        BinOp(BinaryOp.SHL, "acc", "digits", 16),
        BinOp(BinaryOp.OR, "acc", "acc", "alpha"),
    ] + _finish("acc")
    return Module("ctype", [Function("main", body)], globals=["result"],
                  data=table)


def switch(scale: int = 1) -> Module:
    """An 8-way dispatch — branch-predictor stress."""
    cases = []
    for v in range(8):
        cases = [If("sel", Cmp.EQ, v,
                    [BinOp(BinaryOp.ADD, "acc", "acc", (v + 1) * 3)],
                    cases)]
    body = [
        Const("x", 7),
        Const("acc", 0),
        Loop(350 * scale, [
            BinOp(BinaryOp.MUL, "x", "x", 1103515245),
            BinOp(BinaryOp.ADD, "x", "x", 12345),
            BinOp(BinaryOp.AND, "x", "x", MASK32),
            BinOp(BinaryOp.SHR, "sel", "x", 13),
            BinOp(BinaryOp.AND, "sel", "sel", 7),
        ] + cases),
        BinOp(BinaryOp.AND, "acc", "acc", MASK32),
    ] + _finish("acc")
    return Module("switch", [Function("main", body)], globals=["result"])


def minicsv(scale: int = 1) -> Module:
    """CSV scanning: byte loads, comparisons, field/row counting."""
    row = b"12,345,6789,ab,cdef\n"
    data = row * (12 * scale)
    body = [
        Const("i", 0),
        Const("fields", 0),
        Const("rows", 0),
        Loop(len(data), [
            Load("ch", "i", size=1),
            If("ch", Cmp.EQ, 44,
               [BinOp(BinaryOp.ADD, "fields", "fields", 1)],
               [If("ch", Cmp.EQ, 10,
                   [BinOp(BinaryOp.ADD, "rows", "rows", 1)])]),
            BinOp(BinaryOp.ADD, "i", "i", 1),
        ]),
        BinOp(BinaryOp.SHL, "acc", "rows", 16),
        BinOp(BinaryOp.OR, "acc", "acc", "fields"),
    ] + _finish("acc")
    return Module("minicsv", [Function("main", body)],
                  globals=["result"], data=data)


def ratelimit(scale: int = 1) -> Module:
    """A token bucket: global state, clamping, branches."""
    body = [
        Const("tokens", 0),
        Const("granted", 0),
        Const("x", 99),
        Loop(400 * scale, [
            BinOp(BinaryOp.ADD, "tokens", "tokens", 3),
            If("tokens", Cmp.GT, 50, [Const("tokens", 50)]),
            BinOp(BinaryOp.MUL, "x", "x", 1103515245),
            BinOp(BinaryOp.ADD, "x", "x", 12345),
            BinOp(BinaryOp.AND, "x", "x", MASK32),
            BinOp(BinaryOp.AND, "want", "x", 7),
            If("tokens", Cmp.GE, "want", [
                BinOp(BinaryOp.SUB, "tokens", "tokens", "want"),
                BinOp(BinaryOp.ADD, "granted", "granted", 1),
            ]),
        ]),
    ] + _finish("granted")
    return Module("ratelimit", [Function("main", body)],
                  globals=["result"])


def ackermann(scale: int = 1) -> Module:
    """Call-chain heavy (the recursive original lowered to loops)."""
    leaf = Function("leaf", [
        LoadGlobal("v", "result"),
        BinOp(BinaryOp.ADD, "v", "v", 1),
        BinOp(BinaryOp.AND, "v", "v", MASK32),
        StoreGlobal("result", "v"),
    ])
    mid = Function("mid", [
        Loop(6, [Call("leaf")]),
    ])
    outer = Function("outer", [
        Loop(8, [Call("mid")]),
    ])
    main = Function("main", [
        Const("z", 0),
        StoreGlobal("result", "z"),
        Loop(6 * scale, [Call("outer")]),
    ])
    return Module("ackermann", [main, outer, mid, leaf],
                  globals=["result"])


def _arx_round(a: str, b: str, c: str, d: str, rots) -> List:
    ops = []
    ops += [BinOp(BinaryOp.ADD, a, a, b), BinOp(BinaryOp.AND, a, a, MASK32),
            BinOp(BinaryOp.XOR, d, d, a)]
    ops += rotl(d, rots[0])
    ops += [BinOp(BinaryOp.ADD, c, c, d), BinOp(BinaryOp.AND, c, c, MASK32),
            BinOp(BinaryOp.XOR, b, b, c)]
    ops += rotl(b, rots[1])
    return ops


def _arx_module(name: str, rounds: int, rots, scale: int) -> Module:
    """Shared shape for the ARX ciphers; distinct rotation schedules."""
    state = [f"s{i}" for i in range(8)]
    init = [Const(s, (i + 1) * 0x9E3779B9 & MASK32)
            for i, s in enumerate(state)]
    round_ops: List = []
    for r in range(rounds):
        round_ops += _arx_round(state[0], state[1], state[2], state[3],
                                rots[r % len(rots)])
        round_ops += _arx_round(state[4], state[5], state[6], state[7],
                                rots[(r + 1) % len(rots)])
        round_ops += _arx_round(state[0], state[5], state[2], state[7],
                                rots[(r + 2) % len(rots)])
    body = init + [
        Const("acc", 0),
        Loop(10 * scale, round_ops + [
            BinOp(BinaryOp.XOR, "acc", "acc", state[0]),
            BinOp(BinaryOp.XOR, "acc", "acc", state[7]),
        ]),
    ] + _finish("acc")
    return Module(name, [Function("main", body)], globals=["result"])


def xchacha20(scale: int = 1) -> Module:
    return _arx_module("xchacha20", rounds=4,
                       rots=[(16, 12), (8, 7)], scale=scale)


def xblabla20(scale: int = 1) -> Module:
    # BlaBla's 64-bit rotation schedule folded into 32-bit lanes.
    return _arx_module("xblabla20", rounds=4,
                       rots=[(13, 24), (16, 31)], scale=scale)


def blake3_scalar(scale: int = 1) -> Module:
    """BLAKE3-ish compression: ARX rounds + message-word loads."""
    msg_init = [
        Const("mi", 0),
        Loop(16, [
            BinOp(BinaryOp.SHL, "ma", "mi", 2),
            BinOp(BinaryOp.MUL, "mv", "mi", 0x6A09E667),
            BinOp(BinaryOp.AND, "mv", "mv", MASK32),
            Store("ma", "mv", size=4),
            BinOp(BinaryOp.ADD, "mi", "mi", 1),
        ]),
    ]
    state = [f"v{i}" for i in range(8)]
    init = [Const(s, (i * 0x510E527F + 1) & MASK32)
            for i, s in enumerate(state)]
    round_ops: List = [
        BinOp(BinaryOp.AND, "w", "acc", 15 << 2),
        Load("m", "w", size=4),
        BinOp(BinaryOp.XOR, state[0], state[0], "m"),
    ]
    for r in range(3):
        round_ops += _arx_round(state[0], state[1], state[2], state[3],
                                (16, 12))
        round_ops += _arx_round(state[4], state[5], state[6], state[7],
                                (8, 7))
    body = msg_init + init + [
        Const("acc", 1),
        Loop(12 * scale, round_ops + [
            BinOp(BinaryOp.ADD, "acc", "acc", state[3]),
            BinOp(BinaryOp.AND, "acc", "acc", MASK32),
        ]),
    ] + _finish("acc")
    return Module("blake3-scalar", [Function("main", body)],
                  globals=["result"])


def keccak(scale: int = 1) -> Module:
    """Keccak-f theta-like pass over a 25-lane state in memory."""
    body = [
        Const("i", 0),
        Loop(25, [
            BinOp(BinaryOp.SHL, "a", "i", 3),
            BinOp(BinaryOp.MUL, "v", "i", 0x428A2F98),
            BinOp(BinaryOp.AND, "v", "v", MASK32),
            Store("a", "v"),
            BinOp(BinaryOp.ADD, "i", "i", 1),
        ]),
        Const("acc", 0),
        Loop(14 * scale, [
            Const("x", 0),
            Loop(5, [
                BinOp(BinaryOp.SHL, "a0", "x", 3),
                Load("c", "a0"),
                BinOp(BinaryOp.ADD, "a1", "a0", 40),
                Load("t", "a1"),
                BinOp(BinaryOp.XOR, "c", "c", "t"),
                BinOp(BinaryOp.ADD, "a2", "a0", 80),
                Load("t", "a2"),
                BinOp(BinaryOp.XOR, "c", "c", "t"),
            ] + rotl("c", 1) + [
                Store("a0", "c"),
                BinOp(BinaryOp.ADD, "x", "x", 1),
            ]),
            Load("fin", 0),
            BinOp(BinaryOp.XOR, "acc", "acc", "fin"),
            BinOp(BinaryOp.AND, "acc", "acc", MASK32),
        ]),
    ] + _finish("acc")
    return Module("keccak", [Function("main", body)], globals=["result"])


def gimli(scale: int = 1) -> Module:
    """Gimli-style SP-box over a 12-word column state in memory."""
    body = [
        Const("i", 0),
        Loop(12, [
            BinOp(BinaryOp.SHL, "a", "i", 2),
            BinOp(BinaryOp.MUL, "v", "i", 0x9E3779B9),
            BinOp(BinaryOp.AND, "v", "v", MASK32),
            Store("a", "v", size=4),
            BinOp(BinaryOp.ADD, "i", "i", 1),
        ]),
        Const("acc", 0),
        Loop(16 * scale, [
            Const("col", 0),
            Loop(4, [
                BinOp(BinaryOp.SHL, "a", "col", 2),
                Load("x", "a", size=4),
                Load("y", "a", offset=16, size=4),
                Load("z", "a", offset=32, size=4),
            ] + rotl("x", 24) + rotl("y", 9) + [
                BinOp(BinaryOp.SHL, "t", "z", 1),
                BinOp(BinaryOp.AND, "u", "y", "z"),
                BinOp(BinaryOp.SHL, "u", "u", 2),
                BinOp(BinaryOp.XOR, "nz", "x", "t"),
                BinOp(BinaryOp.XOR, "nz", "nz", "u"),
                BinOp(BinaryOp.AND, "nz", "nz", MASK32),
                Store("a", "nz", offset=32, size=4),
                BinOp(BinaryOp.OR, "u", "x", "z"),
                BinOp(BinaryOp.SHL, "u", "u", 1),
                BinOp(BinaryOp.XOR, "ny", "y", "x"),
                BinOp(BinaryOp.XOR, "ny", "ny", "u"),
                BinOp(BinaryOp.AND, "ny", "ny", MASK32),
                Store("a", "ny", offset=16, size=4),
                BinOp(BinaryOp.AND, "u", "x", "y"),
                BinOp(BinaryOp.SHL, "u", "u", 3),
                BinOp(BinaryOp.XOR, "nx", "z", "y"),
                BinOp(BinaryOp.XOR, "nx", "nx", "u"),
                BinOp(BinaryOp.AND, "nx", "nx", MASK32),
                Store("a", "nx", size=4),
                BinOp(BinaryOp.ADD, "col", "col", 1),
            ]),
            Load("fin", 0, size=4),
            BinOp(BinaryOp.XOR, "acc", "acc", "fin"),
        ]),
    ] + _finish("acc")
    return Module("gimli", [Function("main", body)], globals=["result"])


#: name -> builder, in the paper's Fig. 2 ordering.
SIGHTGLASS_BENCHMARKS: Dict[str, Callable[[int], Module]] = {
    "blake3-scalar": blake3_scalar,
    "ackermann": ackermann,
    "base64": base64,
    "ctype": ctype,
    "fib2": fib2,
    "gimli": gimli,
    "keccak": keccak,
    "memmove": memmove,
    "minicsv": minicsv,
    "nestedloop": nestedloop,
    "random": random_lcg,
    "ratelimit": ratelimit,
    "sieve": sieve,
    "switch": switch,
    "xblabla20": xblabla20,
    "xchacha20": xchacha20,
}
