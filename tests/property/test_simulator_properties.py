"""Property-based tests for the event scheduler, links and ground truth."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.join.ground_truth import GroundTruthOracle
from repro.net.link import Link, LinkSpec
from repro.net.message import Message, MessageKind
from repro.net.simulator import EventScheduler
from repro.streams.tuples import StreamId, StreamTuple
from repro.streams.window import CountWindow


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=100))
@settings(max_examples=60)
def test_events_fire_in_nondecreasing_time_order(times):
    scheduler = EventScheduler()
    fired = []
    for time in times:
        scheduler.schedule_at(time, lambda t=time: fired.append(scheduler.now))
    scheduler.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=50))
@settings(max_examples=40)
def test_clock_never_goes_backwards(delays):
    scheduler = EventScheduler()
    observed = []

    def observe():
        observed.append(scheduler.now)

    for delay in delays:
        scheduler.schedule_in(delay, observe)
    scheduler.run()
    assert observed == sorted(observed)


link_specs = st.builds(
    LinkSpec,
    bandwidth_bps=st.floats(min_value=1e3, max_value=1e9),
    latency_min_s=st.floats(min_value=1e-4, max_value=0.5),
    latency_max_s=st.floats(min_value=0.5, max_value=2.0),
)

send_plans = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),  # send time
        st.integers(min_value=0, max_value=64),  # piggy-backed entries
    ),
    min_size=1,
    max_size=30,
)


@given(spec=link_specs, plan=send_plans, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_arrival_never_precedes_send_plus_latency_min(spec, plan, seed):
    """arrival >= send + latency_min on every link, whatever the traffic.

    Sampled propagation lies in [latency_min, latency_max] and both
    serialization and FIFO backlog only add delay, so the minimum
    latency is a true lower bound on every message's transit time.
    """
    spec.validate()
    scheduler = EventScheduler()
    link = Link(
        scheduler,
        spec,
        deliver=lambda message: None,
        rng=np.random.default_rng(seed),
    )
    for send_time, entries in sorted(plan):
        scheduler._now = send_time
        message = Message(
            kind=MessageKind.TUPLE,
            source=0,
            destination=1,
            summary_entries=entries,
        )
        arrival = link.send(message)
        assert arrival >= send_time + spec.latency_min_s


arrival_plans = st.lists(
    st.tuples(
        st.sampled_from([StreamId.R, StreamId.S]),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=120,
)


@given(arrival_plans, st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_oracle_matches_brute_force_windowed_join(plan, capacity):
    """|Psi| from the oracle equals a brute-force enumeration."""
    oracle = GroundTruthOracle()
    windows = {}
    brute_pairs = set()
    live = []  # (stream, key, tuple_id, origin) currently in some window

    for stream, key, origin in plan:
        item = StreamTuple(stream=stream, key=key, origin_node=origin, arrival_index=0)
        for other_stream, other_key, other_id, _ in live:
            if other_stream is not stream and other_key == key:
                pair = (
                    (item.tuple_id, other_id)
                    if stream is StreamId.R
                    else (other_id, item.tuple_id)
                )
                brute_pairs.add(pair)
        window = windows.setdefault((origin, stream), CountWindow(capacity))
        evicted = window.append(item)
        live.append((stream, key, item.tuple_id, origin))
        evicted_ids = {t.tuple_id for t in evicted}
        live = [entry for entry in live if entry[2] not in evicted_ids]
        oracle.observe_arrival(item, evicted)

    assert oracle.total_result_pairs == len(brute_pairs)
    for pair in brute_pairs:
        assert oracle.is_true_pair(*pair)
