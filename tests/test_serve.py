"""Tests for the serving daemon (`repro serve`).

Covers the determinism contract (same seed + simulated clock ==>
byte-identical event log, snapshots, and report, with or without a
live HTTP observer attached), the admission/arrival building blocks,
the ledger-conservation invariant at every snapshot (property-based),
and the degradation ladder under live traffic: mid-session faults
shed or reroute in-flight work without dropping admitted requests.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.obs import Obs, parse_exposition, validate_events
from repro.serve import (
    ARRIVALS,
    AdmissionController,
    ClientPopulation,
    DaemonState,
    LiveTelemetryStore,
    ServeConfig,
    ServeDaemon,
    TokenBucket,
    make_arrival,
)
from repro.serve.arrivals import ArrivalProcess, BurstyArrivals, DiurnalArrivals


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _artifacts(daemon: ServeDaemon, report: dict) -> str:
    """Canonical JSON of everything a session externalises."""
    return _canonical({
        "report": report,
        "events": list(daemon.obs.events.events),
        "snapshots": list(daemon.obs.sampler.series),
    })


# ---------------------------------------------------------------------------
# Arrival processes


class TestArrivals:
    def test_registry_lists_builtins(self):
        names = ARRIVALS.names()
        assert names[:3] == ("poisson", "bursty", "diurnal")
        assert isinstance(make_arrival("poisson"), ArrivalProcess)

    def test_make_arrival_unknown_name(self):
        with pytest.raises(ValueError, match="unknown arrival"):
            make_arrival("tsunami")

    def test_temporary_arrival_scoped(self):
        class Flat(ArrivalProcess):
            def intensity(self, cycle):
                return 2.0

        with ARRIVALS.temporary("flat", Flat):
            assert "flat" in ARRIVALS.names()
            assert make_arrival("flat").intensity(0) == 2.0
        assert "flat" not in ARRIVALS.names()
        # Shadowing a built-in restores it afterwards.
        with ARRIVALS.temporary("poisson", Flat):
            assert make_arrival("poisson").intensity(0) == 2.0
        assert make_arrival("poisson").intensity(0) == 1.0

    def test_bursty_mean_preserving(self):
        proc = BurstyArrivals(period=512, duty=0.25, peak=4.0)
        mean = sum(proc.intensity(c) for c in range(512)) / 512
        assert mean == pytest.approx(1.0, abs=0.02)
        assert max(proc.intensity(c) for c in range(512)) == pytest.approx(4.0)

    def test_diurnal_nonnegative_and_periodic(self):
        proc = DiurnalArrivals(period=2048, amplitude=0.8)
        vals = [proc.intensity(c) for c in range(2048)]
        assert min(vals) >= 0.0
        assert proc.intensity(0) == pytest.approx(proc.intensity(2048))

    def test_population_deterministic(self):
        kwargs = dict(tenants=("a", "b"), process=make_arrival("poisson"),
                      rate=0.2, mvm_fraction=0.5, nodes=8, seed=11)
        pop1 = ClientPopulation(**kwargs)
        pop2 = ClientPopulation(**kwargs)
        for cycle in range(200):
            assert pop1.requests_for_cycle(cycle) == \
                pop2.requests_for_cycle(cycle)

    def test_population_tenant_streams_independent(self):
        """Adding a tenant must not perturb existing tenants' streams."""
        small = ClientPopulation(tenants=("a",),
                                 process=make_arrival("poisson"),
                                 rate=0.3, mvm_fraction=0.5, nodes=8, seed=3)
        big = ClientPopulation(tenants=("a", "b"),
                               process=make_arrival("poisson"),
                               rate=0.3, mvm_fraction=0.5, nodes=8, seed=3)
        for cycle in range(200):
            only_a = [r for r in big.requests_for_cycle(cycle)
                      if r.tenant == "a"]
            assert only_a == small.requests_for_cycle(cycle)


# ---------------------------------------------------------------------------
# Admission control


class TestAdmission:
    def test_bucket_starts_full_then_throttles(self):
        bucket = TokenBucket(rate_per_cycle=1e-9, burst=3.0)
        assert [bucket.try_take(0) for _ in range(4)] == \
            [True, True, True, False]

    def test_bucket_refills_with_cycles(self):
        bucket = TokenBucket(rate_per_cycle=0.5, burst=1.0)
        assert bucket.try_take(0)
        assert not bucket.try_take(0)
        assert not bucket.try_take(1)   # 0.5 tokens: not enough
        assert bucket.try_take(2)       # 1.0 token accrued
        assert bucket.level(2) == pytest.approx(0.0)

    def test_refill_capped_at_burst(self):
        bucket = TokenBucket(rate_per_cycle=1.0, burst=2.0)
        for _ in range(2):
            assert bucket.try_take(0)
        assert bucket.level(10_000) == pytest.approx(2.0)

    def test_controller_isolates_tenants(self):
        ctl = AdmissionController(rate_per_cycle=1e-9, burst=1.0)
        assert ctl.admit("a", 0)
        assert not ctl.admit("a", 0)
        assert ctl.admit("b", 0)  # b's bucket untouched by a's spend


class TestServeConfigValidation:
    """Configurations the session could never run fail at construction."""

    @pytest.mark.parametrize("rate", [0.0, -0.5])
    def test_admission_rate_must_be_positive(self, rate):
        with pytest.raises(ValueError, match="admission_rate must be > 0"):
            ServeConfig(admission_rate=rate)

    @pytest.mark.parametrize("burst", [0.0, 0.5])
    def test_admission_burst_at_least_one(self, burst):
        with pytest.raises(ValueError, match="admission_burst must be >= 1"):
            ServeConfig(admission_burst=burst)

    def test_mvm_width_must_fit_the_fabric(self):
        # MVM requests ask for max(2, ports // 4) fabric ports; the
        # default fabric has SystemConfig().mzim_ports == 8 of them.
        assert ServeConfig(ports=35).mvm_ports == 8
        with pytest.raises(ValueError, match="8-port fabric"):
            ServeConfig(ports=36)
        with pytest.raises(ValueError, match="16 ports"):
            ServeConfig(ports=64)

    def test_rate_must_be_non_negative(self):
        assert ServeConfig(rate=0.0).rate == 0.0
        with pytest.raises(ValueError, match="rate must be >= 0"):
            ServeConfig(rate=-1.0)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_mvm_fraction_in_unit_interval(self, fraction):
        with pytest.raises(ValueError, match=r"mvm_fraction must be in"):
            ServeConfig(mvm_fraction=fraction)

    def test_at_least_two_nodes(self):
        with pytest.raises(ValueError, match="need >= 2 nodes, got 1"):
            ServeConfig(nodes=1)

    def test_unknown_names_list_the_registry(self):
        with pytest.raises(ValueError, match="known: .*'poisson'"):
            ServeConfig(arrival="tsunami")
        with pytest.raises(ValueError, match="known: .*'stuck_mzi'"):
            ServeConfig(fault="gamma_ray")


# ---------------------------------------------------------------------------
# Daemon determinism


class TestServeDeterminism:
    CONFIG = ServeConfig(duration=1200, seed=7, arrival="bursty", rate=0.08)

    def _run(self, config=None, observed=False):
        daemon = ServeDaemon(config or self.CONFIG)
        if observed:
            store = LiveTelemetryStore(daemon.obs, daemon=daemon)
            daemon.start()
            for _ in range(daemon.config.duration):
                daemon.step()
                if daemon.cycle % 256 == 0:
                    # Interleave reads the way a scraper would.
                    store.exposition()
                    store.health()
            report = daemon.finish()
        else:
            report = daemon.run()
        return daemon, report

    def test_same_seed_byte_identical(self):
        d1, r1 = self._run()
        d2, r2 = self._run()
        assert _artifacts(d1, r1) == _artifacts(d2, r2)

    def test_observer_does_not_perturb_session(self):
        d1, r1 = self._run(observed=False)
        d2, r2 = self._run(observed=True)
        assert _artifacts(d1, r1) == _artifacts(d2, r2)

    def test_different_seeds_differ(self):
        _, r1 = self._run()
        _, r2 = self._run(ServeConfig(duration=1200, seed=8,
                                      arrival="bursty", rate=0.08))
        assert r1["ledger"] != r2["ledger"]

    def test_event_log_validates(self):
        daemon, report = self._run()
        assert validate_events(list(daemon.obs.events.events)) == []
        assert report["conserved"] and report["drained"]
        assert report["state"] == DaemonState.STOPPED.value

    def test_lifecycle_transitions_in_order(self):
        daemon, _ = self._run()
        states = [(e["src"], e["dst"])
                  for e in daemon.obs.events.events
                  if e["type"] == "serve_transition"]
        assert states[0] == ("boot", "serving")
        assert states[-2:] == [("serving", "draining"),
                               ("draining", "stopped")]

    def test_live_store_surface(self):
        daemon, _ = self._run()
        store = LiveTelemetryStore(daemon.obs, daemon=daemon)
        health = store.health()
        assert health["status"] == "ok"
        assert health["state"] == "stopped"
        assert health["in_flight"] == 0
        samples, problems = parse_exposition(store.exposition())
        assert not problems
        assert "repro_serve_offered_total" in samples
        assert store.events_tail(5) == store.events()[-5:]
        assert store.latest_snapshot() == store.snapshots()[-1]


# ---------------------------------------------------------------------------
# Ledger conservation (property-based)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       arrival=st.sampled_from(("poisson", "bursty", "diurnal")),
       rate=st.floats(min_value=0.01, max_value=0.25))
def test_ledger_conserved_at_every_snapshot(seed, arrival, rate):
    """admitted + rejected == offered and in_flight == admitted - completed
    must hold at every snapshot, not just at the end of the session."""
    config = ServeConfig(duration=768, seed=seed, arrival=arrival, rate=rate,
                         snapshot_interval=128)
    daemon = ServeDaemon(config)
    report = daemon.run()
    snaps = list(daemon.obs.sampler.series)
    assert snaps, "expected at least one snapshot"
    for snap in snaps:
        counters = snap["metrics"]["counters"]
        gauges = snap["metrics"]["gauges"]
        offered = counters.get("serve.offered", 0)
        admitted = counters.get("serve.admitted", 0)
        rejected = counters.get("serve.rejected", 0)
        completed = counters.get("serve.completed", 0)
        assert admitted + rejected == offered
        assert gauges.get("serve.in_flight", 0) == admitted - completed
    assert report["conserved"] and report["drained"]
    assert report["ledger"]["in_flight"] == 0


# ---------------------------------------------------------------------------
# Faults under live traffic


class TestServeUnderFaults:
    def test_drift_recovers_without_drops(self):
        config = ServeConfig(duration=3000, seed=5, rate=0.08,
                             fault="phase_drift", fault_magnitude=2.0)
        daemon = ServeDaemon(config)
        report = daemon.run()
        assert len(report["injected"]) == 1
        assert report["injected"][0]["kind"] == "phase_drift"
        assert report["detected_cycle"] is not None
        assert report["ladder"]["attempts"] > 0
        # Every admitted request still completes.
        assert report["ledger"]["completed"] == report["ledger"]["admitted"]
        assert report["conserved"] and report["drained"]
        assert report["final_rung"] == "HEALTHY"
        kinds = {e["type"] for e in daemon.obs.events.events}
        assert "ladder_transition" in kinds
        assert "fault_activation" in kinds

    def test_hard_fault_falls_back_to_electrical(self):
        config = ServeConfig(duration=3000, seed=5, rate=0.08,
                             fault="laser_degradation", fault_magnitude=2.0)
        report = ServeDaemon(config).run()
        assert report["final_rung"] == "ELECTRICAL"
        assert report["electrical_completions"] > 0
        # Electrical fallback serves the work instead of dropping it.
        assert report["ledger"]["completed"] == report["ledger"]["admitted"]
        assert report["conserved"] and report["drained"]

    def test_fault_session_deterministic(self):
        config = ServeConfig(duration=2000, seed=5, rate=0.08,
                             fault="stuck_mzi", fault_magnitude=1.0)
        runs = []
        for _ in range(2):
            daemon = ServeDaemon(config)
            runs.append(_artifacts(daemon, daemon.run()))
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# CLI


class TestServeCLI:
    ARGS = ["serve", "--duration", "800", "--seed", "7",
            "--arrival", "bursty", "--rate", "0.08"]

    def test_serve_check_ok(self, capsys):
        assert main([*self.ARGS, "--check"]) == 0
        assert "serve check: ok" in capsys.readouterr().out

    def test_serve_out_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main([*self.ARGS, "--out", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_serve_telemetry_dir_byte_identical(self, tmp_path, capsys):
        dirs = [tmp_path / "t1", tmp_path / "t2"]
        for out in dirs:
            assert main([*self.ARGS, "--telemetry-dir", str(out)]) == 0
        capsys.readouterr()
        for name in ("events.jsonl", "snapshots.jsonl", "metrics.prom"):
            assert (dirs[0] / name).read_bytes() == \
                (dirs[1] / name).read_bytes()

    def test_serve_fault_check(self, capsys):
        code = main(["serve", "--duration", "1500", "--seed", "5",
                     "--rate", "0.08", "--fault", "phase_drift",
                     "--fault-magnitude", "2.0", "--check"])
        assert code == 0
        assert "serve check: ok" in capsys.readouterr().out

    def test_serve_rejects_unknown_arrival(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--arrival", "tsunami"])
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [["--admission-burst", "0"],
                                      ["--ports", "64"],
                                      ["--rate", "-1"],
                                      ["--mvm-fraction", "1.5"],
                                      ["--nodes", "1"]])
    def test_serve_bad_config_exits_2(self, argv, caplog, capsys):
        assert main(["serve", *argv]) == 2
        assert "serve:" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
