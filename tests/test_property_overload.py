"""Property: any combination of open-loop arrivals, abandonment,
shedding, breaker trips, and fault plans leaves the system clean --
no dangling DB locks, no stranded gate slots, no stuck clients, and a
quiescent kernel."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.apps.bookstore import BookstoreApp, build_bookstore_database
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.harness.profiles import profile_application
from repro.metrics.slo import SloSeries, SloSpec
from repro.overload import (
    AbandonmentSpec,
    BreakerPolicy,
    DegradationLayer,
    DegradationPolicy,
    FlashCrowdProfile,
    MmppProfile,
    OpenLoopPopulation,
    OverloadSpec,
    PoissonProfile,
    ThinkTimeModel,
)
from repro.sim import Simulator
from repro.sim.rng import RngStreams
from repro.topology.configs import WS_PHP_DB
from repro.topology.simulation import SimulatedSite
from repro.workload.client import ClientPopulation, RetryPolicy
from repro.workload.markov import choose_interaction


@pytest.fixture(scope="module")
def app():
    return BookstoreApp(build_bookstore_database(scale=0.002, tiny=True))


@pytest.fixture(scope="module")
def php_profile(app):
    return profile_application(app, app.deploy_php(), "php", repetitions=2)


def _degraded_site(sim, profile, policy):
    """The PHP core site with only the degradation layer composed."""
    site = SimulatedSite(sim, WS_PHP_DB, profile)
    state = DegradationLayer(site, policy)
    site.compose([state])
    return site, state


def _no_dangling_locks(site) -> bool:
    for lock in site._table_locks.values():
        if lock.writer or lock.readers or lock.waiting_writers or \
                lock.waiting_readers:
            return False
    for lock in site._sync_locks.values():
        if lock.writer or lock.readers:
            return False
    return True


def _assert_clean(sim, site, population, state) -> None:
    assert all(p.finished for p in population._procs), "stuck client"
    assert not site.inflight_processes(), "stuck in-flight interaction"
    assert _no_dangling_locks(site), "dangling db/sync lock"
    assert site.web_processes.in_use == 0
    assert site.web_processes.queue_length == 0
    for gate in (state.container_gate, state.db_gate):
        if gate is not None:
            assert gate.in_use == 0, f"stranded slot on {gate.name}"
            assert gate.queue_length == 0, f"stranded waiter on {gate.name}"
    if state.breaker is not None:
        assert state.breaker._probes_in_flight >= 0
    assert sim.quiescent()


# -- drawn inputs -------------------------------------------------------------

_arrival = st.one_of(
    st.floats(min_value=0.5, max_value=2.0).map(
        lambda r: PoissonProfile(rate=r)),
    st.floats(min_value=0.5, max_value=1.5).map(
        lambda r: FlashCrowdProfile(base_rate=r, burst_start=4.0,
                                    burst_duration=6.0, multiplier=4.0)),
    st.floats(min_value=0.5, max_value=1.5).map(
        lambda r: MmppProfile(calm_rate=r, busy_rate=4 * r,
                              calm_dwell_mean=4.0, busy_dwell_mean=3.0)),
)

_think = st.sampled_from([
    ThinkTimeModel(mean=1.0),
    ThinkTimeModel(distribution="lognormal", mean=1.0, sigma=1.2),
    ThinkTimeModel(distribution="pareto", mean=1.0, alpha=1.3, cap=20.0),
])

_abandon = st.one_of(
    st.none(),
    st.builds(AbandonmentSpec,
              patience=st.floats(min_value=0.005, max_value=1.0),
              probability=st.floats(min_value=0.3, max_value=1.0)))

# Tiny bounds force constant gate churn: rejections, shedding and
# queueing all fire within a 16-second run.
_policy = st.builds(
    DegradationPolicy,
    container_concurrency=st.sampled_from([None, 1, 2, 8]),
    container_backlog=st.integers(min_value=0, max_value=3),
    db_concurrency=st.sampled_from([None, 1, 2, 8]),
    db_backlog=st.integers(min_value=0, max_value=3),
    breaker=st.sampled_from([
        None,
        BreakerPolicy(window=6, min_calls=2, trip_threshold=0.5,
                      reset_timeout=1.0, half_open_probes=1),
    ]),
    shed_queue_threshold=st.sampled_from([None, 1, 4]))

_fault = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["web", "db", "db"]),
              st.sampled_from(["crash", "db_conn_glitch"]),
              st.floats(min_value=2.0, max_value=10.0),
              st.floats(min_value=0.5, max_value=4.0)))


def _build_plan(fault):
    if fault is None:
        return None
    tier, kind, at, duration = fault
    if kind == "db_conn_glitch":
        tier = "db"
    return FaultPlan((FaultEvent(kind, tier, at, duration),))


# -- open loop ----------------------------------------------------------------

@settings(max_examples=12, deadline=None)
@given(arrival=_arrival, think=_think, abandon=_abandon, policy=_policy,
       fault=_fault)
def test_open_loop_chaos_leaves_system_clean(arrival, think, abandon,
                                             policy, fault):
    fn = test_open_loop_chaos_leaves_system_clean
    sim = Simulator()
    site, state = _degraded_site(sim, fn.profile, policy)
    spec = OverloadSpec(arrivals=arrival, think=think, session_mean=3.0,
                        abandonment=abandon, max_concurrent_sessions=64)
    population = OpenLoopPopulation(
        sim, spec, fn.mix, site, RngStreams(17), choose_interaction,
        retry=RetryPolicy(deadline=2.0, max_retries=1, backoff_base=0.1,
                          backoff_cap=0.5, retry_budget=10),
        slo=SloSeries(sim, SloSpec()))
    plan = _build_plan(fault)
    if plan is not None:
        FaultInjector(sim, site, plan).start()
    population.start()
    sim.run(until=2.0)
    population.begin_measurement()
    sim.run(until=16.0)
    population.end_measurement()
    population.stop()
    sim.run()
    _assert_clean(sim, site, population, state)


# -- closed loop with degradation installed -----------------------------------

@settings(max_examples=8, deadline=None)
@given(policy=_policy, fault=_fault)
def test_closed_loop_with_degradation_leaves_system_clean(policy, fault):
    fn = test_closed_loop_with_degradation_leaves_system_clean
    sim = Simulator()
    site, state = _degraded_site(sim, fn.profile, policy)
    population = ClientPopulation(
        sim, 5, fn.mix, site, RngStreams(23), choose_interaction,
        retry=RetryPolicy(deadline=2.0, max_retries=1, backoff_base=0.1,
                          backoff_cap=0.5, retry_budget=10))
    plan = _build_plan(fault)
    if plan is not None:
        FaultInjector(sim, site, plan).start()
    population.start()
    sim.run(until=16.0)
    population.stop()
    sim.run()
    _assert_clean(sim, site, population, state)


# hypothesis @given cannot take module fixtures; attach inputs once.
@pytest.fixture(scope="module", autouse=True)
def _attach_inputs(app, php_profile):
    for fn in (test_open_loop_chaos_leaves_system_clean,
               test_closed_loop_with_degradation_leaves_system_clean):
        fn.profile = php_profile
        fn.mix = app.mix("shopping")
    yield
