"""Property-based tests for the event scheduler, links and ground truth."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.join.ground_truth import GroundTruthOracle
from repro.net.link import Link, LinkSpec
from repro.net.message import Message, MessageKind
from repro.net.simulator import EventKeySource, EventScheduler
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


schedule_plans = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0]),  # tied times
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)),  # key rank
        st.booleans(),  # cancelled before the run
    ),
    max_size=60,
)


def _scheduled(plan, compact):
    """Schedule ``plan``; return the scheduler, the fired keys and the
    keys expected to fire, in sorted ``(time, phase, rank, seq)`` order.

    With ``compact``, an event at t=0.25 cancels 80 far-future events,
    which compacts the heap mid-run while later plan events still wait.
    """
    scheduler = EventScheduler()
    sources = {}
    fired, expected = [], []
    unkeyed = 0

    def schedule(time, rank):
        nonlocal unkeyed
        if rank is None:
            sort_key = (time, 0, 0, unkeyed)
            unkeyed += 1
            key = None
        else:
            key = sources.setdefault(rank, EventKeySource(rank)).next_key()
            sort_key = (time, 1) + key

        return sort_key, scheduler.schedule_at(
            time, lambda: fired.append(sort_key), key=key
        )

    for time, rank, cancelled in plan:
        sort_key, event = schedule(time, rank)
        if cancelled:
            event.cancel()
        else:
            expected.append(sort_key)
    if compact:
        padding = [schedule(100.0, index % 5)[1] for index in range(80)]
        scheduler.schedule_at(0.25, lambda: [event.cancel() for event in padding])
    return scheduler, fired, sorted(expected)


@given(plan=schedule_plans, compact=st.booleans(), stepwise=st.booleans())
@settings(max_examples=80, deadline=None)
def test_events_fire_in_sorted_key_order(plan, compact, stepwise):
    """Keyed and unkeyed events fire in exact ``(time, phase, rank, seq)``
    order, with cancellations and heap compaction, under run() and step()."""
    scheduler, fired, expected = _scheduled(plan, compact)
    if stepwise:
        while scheduler.step():
            pass
    else:
        scheduler.run()
    assert fired == expected
    assert scheduler.pending == 0
    assert (scheduler.compactions > 0) == compact


@given(
    seed=st.integers(0, 2**32 - 1),
    low=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    width=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
    loss_draws=st.lists(st.booleans(), min_size=1, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_sample_latency_matches_generator_uniform(seed, low, width, loss_draws):
    """``sample_latency`` equals ``Generator.uniform(lo, hi)`` draw for
    draw, with loss draws from the same stream interleaved."""
    spec = LinkSpec(latency_min_s=low, latency_max_s=low + width)
    ours, numpy_own = np.random.default_rng(seed), np.random.default_rng(seed)
    for loss_draw in loss_draws:
        assert spec.sample_latency(ours) == float(
            numpy_own.uniform(spec.latency_min_s, spec.latency_max_s)
        )
        if loss_draw:
            assert ours.random() == numpy_own.random()


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
