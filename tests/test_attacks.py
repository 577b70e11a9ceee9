"""Security evaluation (paper §5.3): Spectre-PHT, -BTB and -RSB leak
without HFI and are blocked by HFI's regions, under every timing
model."""

import pytest

from repro.attacks import (
    SpectreBtbAttack,
    SpectrePhtAttack,
    SpectreRsbAttack,
)
from repro.cpu import TIMING_MODELS, default_timing
from repro.params import MachineParams


@pytest.fixture
def params():
    return MachineParams()


@pytest.fixture(params=TIMING_MODELS)
def timing(request):
    """Run the test's attack under each timing model in turn."""
    with default_timing(request.param):
        yield request.param


class TestSpectrePht:
    def test_leaks_secret_without_hfi(self, params, timing):
        attack = SpectrePhtAttack(params, protect_with_hfi=False)
        result = attack.attack(secret_value=ord("I"))
        assert result.leaked
        assert result.leaked_value == ord("I")

    def test_latency_signal_is_unambiguous(self, params):
        attack = SpectrePhtAttack(params, protect_with_hfi=False)
        result = attack.attack(secret_value=0x42)
        hit = result.latencies[0x42]
        others = [l for v, l in enumerate(result.latencies) if v != 0x42]
        assert hit <= result.threshold
        assert min(others) > result.threshold

    def test_hfi_blocks_the_leak(self, params, timing):
        attack = SpectrePhtAttack(params, protect_with_hfi=True)
        result = attack.attack(secret_value=ord("I"))
        assert not result.leaked
        # Fig. 7's "with HFI" series: no latency below the threshold
        assert min(result.latencies) > result.threshold

    def test_hfi_architectural_behaviour_unchanged(self, params):
        """In-bounds calls behave identically under HFI (training runs
        complete without faults)."""
        attack = SpectrePhtAttack(params, protect_with_hfi=True)
        attack.train(rounds=4)
        assert attack.cpu.stats.hfi_faults == 0

    @pytest.mark.parametrize("secret", [1, 77, 200, 255])
    def test_leak_works_for_arbitrary_bytes(self, params, secret):
        attack = SpectrePhtAttack(params, protect_with_hfi=False)
        result = attack.attack(secret_value=secret)
        assert result.leaked_value == secret


class TestSpectreBtb:
    def test_leaks_secret_without_hfi(self, params, timing):
        attack = SpectreBtbAttack(params, protect_with_hfi=False)
        result = attack.attack(secret_value=ord("S"))
        assert result.leaked
        assert result.leaked_value == ord("S")

    def test_hfi_data_regions_block_the_leak(self, params, timing):
        attack = SpectreBtbAttack(params, protect_with_hfi=True,
                                  gadget_in_code_region=True)
        result = attack.attack(secret_value=ord("S"))
        assert not result.leaked
        assert min(result.latencies) > result.threshold

    def test_hfi_code_regions_block_gadget_fetch(self, params, timing):
        """With the gadget outside the code regions, decode refuses to
        execute it even speculatively (§4.1)."""
        attack = SpectreBtbAttack(params, protect_with_hfi=True,
                                  gadget_in_code_region=False)
        result = attack.attack(secret_value=ord("S"))
        assert not result.leaked
        assert min(result.latencies) > result.threshold


class TestSpectreRsb:
    def test_leaks_secret_without_hfi(self, params, timing):
        attack = SpectreRsbAttack(params, protect_with_hfi=False)
        result = attack.attack(secret_value=ord("R"))
        assert result.leaked
        assert result.leaked_value == ord("R")

    def test_hfi_blocks_the_leak(self, params, timing):
        attack = SpectreRsbAttack(params, protect_with_hfi=True)
        result = attack.attack(secret_value=ord("R"))
        assert not result.leaked
        assert min(result.latencies) > result.threshold

    @pytest.mark.parametrize("secret", [7, 128, 250])
    def test_arbitrary_bytes(self, params, secret):
        attack = SpectreRsbAttack(params, protect_with_hfi=False)
        result = attack.attack(secret_value=secret)
        assert result.leaked_value == secret
