"""Tests for the production-traffic scenario matrix
(``repro.workloads.scenarios``): NGINX connection churn, render
pipelines, and the measured lifecycle costs they feed into the
serving loop."""

import pytest

from repro.runtime import (
    ServingConfig,
    ServingSimulator,
    TransitionModel,
    connection_lifecycle_costs,
)
from repro.params import MachineParams
from repro.workloads import (
    CHURN_SCHEMES,
    RENDER_JOBS,
    RENDER_SCHEMES,
    NginxModel,
    build_connection_profiles,
    churn_requests,
    churn_scheme_costs,
    connection_service_cycles,
    measure_render_jobs,
    render_requests,
    render_scheme_costs,
)


@pytest.fixture
def params():
    return MachineParams()


class TestLifecycleCosts:
    def test_measured_and_positive(self):
        for strategy in ("native-unsafe", "native-hfi"):
            setup, teardown = connection_lifecycle_costs(strategy)
            assert setup > 0 and teardown > 0

    def test_pkey_tagging_costs_extra_syscalls(self, params):
        plain = connection_lifecycle_costs("native-unsafe",
                                           params=params)
        tagged = connection_lifecycle_costs("native-unsafe",
                                            tag_pkey=True, params=params)
        assert tagged[0] >= plain[0] + params.syscall_cycles
        assert tagged[1] >= plain[1] + params.syscall_cycles

    def test_churn_scheme_costs_ordering(self):
        costs = {s: churn_scheme_costs(s) for s in CHURN_SCHEMES}
        # MPK's per-connection pkey tag/untag dominates the lifecycle
        assert (costs["mpk"].setup_cycles
                > costs["hfi"].setup_cycles
                >= costs["unprotected"].setup_cycles)
        assert (costs["mpk"].teardown_cycles
                > costs["unprotected"].teardown_cycles)
        # transitions are priced inside the service cycles, not here
        assert all(c.transition_cycles == 0 for c in costs.values())

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            churn_scheme_costs("seccomp")
        with pytest.raises(ValueError):
            render_scheme_costs("mpk")


def test_unknown_arrival_rejected():
    # both stream builders share simulate_serving's arrival names
    with pytest.raises(ValueError, match="bursty"):
        build_connection_profiles(10, arrival="bursty")
    with pytest.raises(ValueError, match="bursty"):
        render_requests({"job": {"guard-pages": 1000}}, 10,
                        arrival="bursty")


class TestConnectionChurn:
    def test_profiles_deterministic_and_scheme_independent(self):
        a = build_connection_profiles(50, seed=9, load=0.7)
        b = build_connection_profiles(50, seed=9, load=0.7)
        assert a == b
        assert build_connection_profiles(50, seed=10, load=0.7) != a

    def test_streams_share_arrivals_differ_in_service(self):
        profiles = build_connection_profiles(40, seed=3, load=0.6)
        streams = {s: churn_requests(profiles, s) for s in CHURN_SCHEMES}
        for scheme, reqs in streams.items():
            assert [r.arrival_cycle for r in reqs] == [
                p.arrival_cycle for p in profiles]
        hfi = sum(r.service_cycles for r in streams["hfi"])
        mpk = sum(r.service_cycles for r in streams["mpk"])
        plain = sum(r.service_cycles for r in streams["unprotected"])
        # Fig. 5: per-switch MPK is slightly cheaper than HFI (nothing
        # loaded from memory); MPK loses on the pkey lifecycle instead
        assert plain < mpk < hfi

    def test_keepalive_amortizes_handshake(self, params):
        model = NginxModel(params)
        profiles = build_connection_profiles(200, seed=1, load=0.5)
        one = next(p for p in profiles if p.keepalive_requests == 1)
        cycles = connection_service_cycles(model, one, "hfi")
        assert cycles == model.request_cycles(one.file_bytes, "hfi")
        many = profiles[0]
        per_request = model.request_cycles(many.file_bytes, "hfi")
        assert (connection_service_cycles(model, many, "hfi")
                <= many.keepalive_requests * per_request)

    def test_simulates_end_to_end(self):
        profiles = build_connection_profiles(120, seed=5, load=0.6)
        config = ServingConfig(n_cores=4)
        for scheme in CHURN_SCHEMES:
            sim = ServingSimulator(churn_scheme_costs(scheme), config)
            metrics = sim.run(churn_requests(profiles, scheme))
            assert metrics.accounted
            assert metrics.succeeded + metrics.shed == 120


class TestRenderPipelines:
    #: two cheap cells keep the executed-Wasm test inside tier-1 budget
    TRIMMED = ("image/240p-none", "image/240p-default")

    def test_measured_cells_ordered_and_agreeing(self):
        jobs = {name: RENDER_JOBS[name] for name in self.TRIMMED}
        table = measure_render_jobs(jobs=jobs)
        for name in self.TRIMMED:
            per = table[name]
            assert set(per) == set(RENDER_SCHEMES)
            # Fig. 4 direction: hfi codegen beats the software schemes
            assert per["hfi"] < per["guard-pages"]
            assert per["hfi"] < per["bounds-check"]

    def test_streams_share_arrivals_use_measured_columns(self):
        table = {"a": {"hfi": 1000, "guard-pages": 1500,
                       "bounds-check": 2000},
                 "b": {"hfi": 3000, "guard-pages": 4000,
                       "bounds-check": 6000}}
        streams = render_requests(table, 30, seed=2, load=0.5)
        arrivals = [r.arrival_cycle for r in streams["hfi"]]
        for scheme in RENDER_SCHEMES:
            assert [r.arrival_cycle for r in streams[scheme]] == arrivals
            for r in streams[scheme]:
                assert r.service_cycles in (table["a"][scheme],
                                            table["b"][scheme])

    def test_render_costs_teardown_shape(self):
        # §6.3.1: only guard-page slots must madvise immediately
        assert not render_scheme_costs("guard-pages").batch_teardown
        assert render_scheme_costs("hfi").batch_teardown
        assert render_scheme_costs("bounds-check").batch_teardown
