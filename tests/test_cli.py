"""Tests for the repro-hfi command-line interface."""

import json

import pytest

from repro.cli import main
from repro.runtime import SERVING_SCHEMES
from repro.verify import sweep


class TestCli:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "sieve" in out and "445.gobmk" in out
        assert "sightglass" in out and "spec2006" in out

    def test_run_workload(self, capsys):
        assert main(["run", "fib2", "--strategy", "hfi"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "hlt" in out

    def test_run_timing_flag(self, capsys):
        assert main(["run", "fib2", "--timing", "ooo"]) == 0
        assert "timing:       ooo" in capsys.readouterr().out

    def test_serve_has_no_timing_flag(self):
        # serving runs no CPU simulation, so it takes no backend flags
        with pytest.raises(SystemExit):
            main(["serve", "--timing", "ooo"])

    def test_serve_bursty_overload_balances(self, capsys):
        # exits 0 only if every scheme's request ledger balances
        assert main(["serve", "--requests", "500", "--arrival", "mmpp",
                     "--load", "1.2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["schemes"]) == set(SERVING_SCHEMES)
        assert all(run["accounted"] for run in payload["schemes"].values())

    def test_verify_has_no_timing_flag(self):
        # verify diffs every timing model itself, so no flag picks one
        with pytest.raises(SystemExit):
            main(["verify", "--timing", "ooo"])

    def test_verify_seed_base_picks_comparator_seed(self, capsys):
        assert main(["verify", "--seeds", "1", "--seed-base", "7",
                     "--comparator-trials", "200", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["comparator"]["classified"] == dict(
            sweep(trials=200, seed=7).counts)

    @pytest.mark.parametrize("flag, value", [("--cores", "0"),
                                             ("--slots-per-shard", "0"),
                                             ("--max-inflight", "-5")])
    def test_serve_rejects_bad_capacity(self, flag, value):
        with pytest.raises(SystemExit, match=flag):
            main(["serve", "--requests", "50", flag, value])

    def test_run_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "does-not-exist"])

    def test_run_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            main(["run", "fib2", "--strategy", "magic"])

    def test_compare(self, capsys):
        rc = main(["compare", "minicsv",
                   "--strategies", "guard-pages,hfi"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "guard-pages" in out and "hfi" in out
        assert "100.0%" in out

    def test_attack_pht_leaks_without_hfi(self, capsys):
        assert main(["attack", "pht"]) == 1       # leak => nonzero
        assert "LEAKED 'I'" in capsys.readouterr().out

    def test_attack_pht_blocked_with_hfi(self, capsys):
        assert main(["attack", "pht", "--hfi"]) == 0
        assert "no leak" in capsys.readouterr().out

    def test_attack_btb(self, capsys):
        assert main(["attack", "btb", "--secret", "Z"]) == 1
        assert "LEAKED 'Z'" in capsys.readouterr().out

    def test_nginx_table(self, capsys):
        assert main(["nginx"]) == 0
        out = capsys.readouterr().out
        assert "128kb" in out and "HFI overhead" in out

    def test_heap_growth(self, capsys):
        assert main(["heap-growth", "--gib", "1"]) == 0
        out = capsys.readouterr().out
        assert "hfi_set_region" in out and "mprotect" in out

    def test_attack_rsb(self, capsys):
        assert main(["attack", "rsb"]) == 1
        assert "LEAKED" in capsys.readouterr().out

    def test_chain(self, capsys):
        assert main(["chain", "--functions", "3"]) == 0
        out = capsys.readouterr().out
        assert "ipc" in out and "advantage" in out

    def test_startup(self, capsys):
        assert main(["startup"]) == 0
        out = capsys.readouterr().out
        assert "container" in out and "wasm-instance-pooled" in out

    def test_chaos_soak_clean(self, capsys):
        assert main(["chaos", "--seeds", "3", "--requests", "60"]) == 0
        out = capsys.readouterr().out
        assert "CLEAN" in out
        assert "unaccounted:       0" in out
        assert "leaked slots:      0" in out
        assert "zombie sandboxes:  0" in out
        assert "goodput retained:" in out

    def test_chaos_json_payload(self, capsys):
        assert main(["chaos", "--seeds", "2", "--requests", "40",
                     "--json", "--no-baseline"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["runs"] == 2
        assert payload["unaccounted"] == 0
        assert payload["goodput_retained"] is None  # --no-baseline
        assert "seeds" not in payload               # not --verbose

    def test_chaos_rejects_bad_rate(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--fault-rate", "1.5"])