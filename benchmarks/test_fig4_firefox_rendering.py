"""§6.2 / Fig. 4 — Wasm-sandboxed rendering in Firefox.

Paper numbers:
* Font (libgraphite reflow x10): guard pages 1823 ms, bounds 2022 ms,
  HFI 1677 ms => HFI beats guard pages by 8.7%, bounds by ~17%.
* Image (libjpeg): HFI beats guard pages by 14%-37%; the speedup grows
  with image size (amortized serialized enters) and compression level
  (per-pixel compute => register pressure).
"""

from conftest import run_module

from repro.analysis import emit, format_table, speedup_pct
from repro.wasm import (
    BoundsCheckStrategy,
    GuardPagesStrategy,
    HfiStrategy,
)
from repro.workloads import COMPRESSION_ROUNDS, RESOLUTIONS, jpeg_decode
from repro.workloads.font import graphite_reflow


def run_font():
    module = graphite_reflow()
    guard, v0, _, _ = run_module(module, GuardPagesStrategy())
    bounds, v1, _, _ = run_module(module, BoundsCheckStrategy())
    hfi, v2, _, _ = run_module(module, HfiStrategy())
    assert v0 == v1 == v2
    return guard, bounds, hfi


def run_images():
    grid = {}
    for compression in COMPRESSION_ROUNDS:
        for resolution in RESOLUTIONS:
            module = jpeg_decode(resolution, compression)
            guard, v0, _, _ = run_module(module, GuardPagesStrategy())
            bounds, v1, _, _ = run_module(module, BoundsCheckStrategy())
            hfi, v2, _, _ = run_module(module, HfiStrategy())
            assert v0 == v1 == v2
            grid[(compression, resolution)] = (guard, bounds, hfi)
    return grid


def test_font_rendering():
    guard, bounds, hfi = run_font()
    table = format_table(
        ["scheme", "cycles", "vs guard pages"],
        [("guard-pages", guard, "100.0%"),
         ("bounds-check", bounds, f"{100 * bounds / guard:.1f}%"),
         ("hfi", hfi, f"{100 * hfi / guard:.1f}%")],
        title=("§6.2 font rendering (paper: guard 1823 ms, "
               "bounds 2022 ms, HFI 1677 ms)"))
    emit("sec62_font_rendering", table)
    assert bounds > guard > hfi
    # paper: HFI outperforms guard pages by 8.7%
    assert 3.0 <= speedup_pct(hfi, guard) <= 15.0


def test_fig4_image_rendering():
    grid = run_images()
    rows = []
    speedups = {}
    for (compression, resolution), (guard, bounds, hfi) in grid.items():
        s = speedup_pct(hfi, guard)
        speedups[(compression, resolution)] = s
        rows.append((compression, resolution,
                     f"{100 * bounds / guard:.0f}%",
                     f"{100 * guard / guard:.0f}%",
                     f"{100 * hfi / guard:.0f}%",
                     f"+{s:.1f}%"))
    table = format_table(
        ["compression", "resolution", "bounds", "guard", "HFI",
         "HFI speedup"],
        rows,
        title=("Fig. 4 image decode, normalized to guard pages "
               "(paper: HFI 14%-37% faster)"))
    emit("fig4_image_rendering", table)

    values = list(speedups.values())
    assert min(values) >= 8.0, values     # paper floor 14%, loose band
    assert max(values) <= 45.0, values    # paper ceiling 37%
    # larger images amortize hfi_enter: speedup grows with resolution
    for compression in COMPRESSION_ROUNDS:
        assert (speedups[(compression, "1920p")]
                > speedups[(compression, "240p")])
    # more compressed (compute-heavier) images benefit more
    for resolution in RESOLUTIONS:
        assert (speedups[("best", resolution)]
                > speedups[("none", resolution)])