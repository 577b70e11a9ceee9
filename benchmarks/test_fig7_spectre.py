"""Fig. 7 / §5.3 — security evaluation: Spectre on the simulator.

Paper: the SafeSide in-place Spectre-PHT attack leaks a secret byte
(the letter 'I') via cache access latency when run without HFI; with
the secret outside HFI's regions, no access latency ever drops below
the attack's hit threshold.  The TransientFail Spectre-BTB attack is
likewise mitigated.
"""

from repro.analysis import emit, format_series, format_table
from repro.attacks import (
    SpectreBtbAttack,
    SpectrePhtAttack,
    SpectreRsbAttack,
)
from repro.params import MachineParams

SECRET = ord("I")


def run(params):
    unprotected = SpectrePhtAttack(params, protect_with_hfi=False)
    r_unprot = unprotected.attack(secret_value=SECRET)
    protected = SpectrePhtAttack(params, protect_with_hfi=True)
    r_prot = protected.attack(secret_value=SECRET)

    btb_unprot = SpectreBtbAttack(params, protect_with_hfi=False)
    b_unprot = btb_unprot.attack(secret_value=SECRET)
    btb_prot = SpectreBtbAttack(params, protect_with_hfi=True)
    b_prot = btb_prot.attack(secret_value=SECRET)

    s_unprot = SpectreRsbAttack(params,
                                protect_with_hfi=False).attack(SECRET)
    s_prot = SpectreRsbAttack(params,
                              protect_with_hfi=True).attack(SECRET)
    return r_unprot, r_prot, b_unprot, b_prot, s_unprot, s_prot


def test_fig7_spectre():
    params = MachineParams()
    (r_unprot, r_prot, b_unprot, b_prot,
     s_unprot, s_prot) = run(params)

    # Fig. 7's two series: per-byte access latency around the secret.
    window = range(max(0, SECRET - 8), SECRET + 9)
    series = format_series(
        "latency-without-HFI", [chr(v) if 32 <= v < 127 else v
                                for v in window],
        [float(r_unprot.latencies[v]) for v in window], "{:.0f}")
    series += "\n" + format_series(
        "latency-with-HFI", [chr(v) if 32 <= v < 127 else v
                             for v in window],
        [float(r_prot.latencies[v]) for v in window], "{:.0f}")
    summary = format_table(
        ["attack", "HFI", "leaked?", "recovered", "min latency",
         "threshold"],
        [("Spectre-PHT", "off", r_unprot.leaked,
          repr(chr(r_unprot.leaked_value)) if r_unprot.leaked else "-",
          min(r_unprot.latencies), r_unprot.threshold),
         ("Spectre-PHT", "on", r_prot.leaked, "-",
          min(r_prot.latencies), r_prot.threshold),
         ("Spectre-BTB", "off", b_unprot.leaked,
          repr(chr(b_unprot.leaked_value)) if b_unprot.leaked else "-",
          min(b_unprot.latencies), b_unprot.threshold),
         ("Spectre-BTB", "on", b_prot.leaked, "-",
          min(b_prot.latencies), b_prot.threshold),
         ("Spectre-RSB*", "off", s_unprot.leaked,
          repr(chr(s_unprot.leaked_value)) if s_unprot.leaked else "-",
          min(s_unprot.latencies), s_unprot.threshold),
         ("Spectre-RSB*", "on", s_prot.leaked, "-",
          min(s_prot.latencies), s_prot.threshold)],
        title=("Fig. 7 / §5.3 Spectre security evaluation "
               "(paper: leak of 'I' without HFI; with HFI no latency "
               "below threshold; *RSB variant is our extension)"))
    emit("fig7_spectre", summary + "\n" + series)

    assert r_unprot.leaked and r_unprot.leaked_value == SECRET
    assert b_unprot.leaked and b_unprot.leaked_value == SECRET
    assert s_unprot.leaked and s_unprot.leaked_value == SECRET
    assert not r_prot.leaked
    assert min(r_prot.latencies) > r_prot.threshold
    assert not b_prot.leaked
    assert min(b_prot.latencies) > b_prot.threshold
    assert not s_prot.leaked
    assert min(s_prot.latencies) > s_prot.threshold