"""Property test: the backlog index against the tenant-list scans it replaced.

The tenancy policies choose the next tenant from the PINs a node's
store holds (``PrivilegedStore.by_pin``) and answer cross-node
questions from a per-PIN stored count, instead of probing every
registered PIN.  Random multi-node sequences of deliveries (diverting,
cap-diverting, refused or queued), switches, redeliveries, parks and
service drive each policy over random PIN sets — including PINs outside
the tenant list — and after every step the indexed answers must equal
the old scans, which this file keeps as the oracle:

* every ``by_pin`` key holds at least one message;
* ``stored_messages()`` equals the sum over every node's store, and the
  per-PIN count equals the sweep of every store;
* gang's ``_has_work`` equals the old sweep;
* the round-robin choice (and its rotation pointer) equals the old
  cyclic scan from the rotation pointer;
* the quantum choice equals the old ``max`` over ``self.tenants``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nic.interface import NetworkInterface
from repro.nic.messages import Message
from repro.tenancy.scheduler import make_scheduler

QUANTUM = 6


# ----------------------------------------------------------------------
# The deleted scans, kept as the oracle.
# ----------------------------------------------------------------------


def old_rotation_choice(policy, state):
    """RoundRobinScheduler._rotate's scan: (pin, new rotation) or None."""
    tenants = policy.tenants
    count = len(tenants)
    for offset in range(count):
        index = (state.rotation + offset) % count
        pin = tenants[index]
        if pin == state.active_pin:
            continue
        if state.store.pending_count(pin):
            return pin, (index + 1) % count
    return None


def old_quantum_choice(policy, state, cycle):
    """QuantumScheduler._consider's decision: the pin switched to, or None."""
    waiting = [
        pin
        for pin in policy.tenants
        if pin != state.active_pin and state.store.pending_count(pin)
    ]
    if not waiting:
        return None
    expired = cycle - state.slice_start >= policy.quantum
    if expired or not policy._resident_busy(state):
        return max(waiting, key=lambda pin: (state.store.pending_count(pin), -pin))
    return None


def old_has_work(policy, pin):
    if policy.backlog_fn(pin) or policy.gang.saved_message_count(pin):
        return True
    return any(state.store.pending_count(pin) for state in policy.states)


def old_stored_messages(policy):
    return sum(
        len(batch) for state in policy.states for batch in state.store.by_pin.values()
    )


# ----------------------------------------------------------------------
# Scenarios.
# ----------------------------------------------------------------------


@st.composite
def scenarios(draw):
    # List order is the round-robin order, so it is drawn, not sorted.
    tenants = draw(st.lists(st.integers(1, 12), min_size=1, max_size=7, unique=True))
    outsiders = draw(st.lists(st.integers(13, 15), max_size=2, unique=True))
    n_nodes = draw(st.integers(1, 3))
    node = st.integers(0, n_nodes - 1)
    deliver = st.tuples(
        st.just("deliver"),
        node,
        st.sampled_from(tenants + outsiders),
        st.integers(1, 4),  # burst length
        st.integers(0, 9).map(lambda roll: roll == 0),  # privileged
    )
    # Deliveries weigh three times the other steps so that stores fill
    # and ticks often choose among several waiting tenants.
    ops = st.one_of(
        deliver,
        deliver,
        deliver,
        st.tuples(st.just("switch"), node, st.sampled_from(tenants)),
        st.tuples(st.just("redeliver"), node),
        st.tuples(st.just("park"), node),
        st.tuples(st.just("serve"), node),
        st.tuples(st.just("tick"), node, st.integers(0, 2 * QUANTUM)),
    )
    return (
        tenants,
        outsiders,
        n_nodes,
        draw(st.integers(1, 4)),  # input queue capacity
        draw(st.one_of(st.none(), st.integers(1, 3))),  # tenant cap
        draw(st.lists(ops, min_size=20, max_size=120)),
    )


def check_index(policy, pins):
    for state in policy.states:
        assert all(state.store.by_pin.values())
    assert policy.stored_messages() == old_stored_messages(policy)
    for pin in pins:
        swept = sum(state.store.pending_count(pin) for state in policy.states)
        assert policy._stored.get(pin, 0) == swept
        if policy.name == "gang":
            assert policy._has_work(pin) == old_has_work(policy, pin)


def run_scenario(name, scenario):
    tenants, outsiders, n_nodes, capacity, cap, ops = scenario
    interfaces = [
        NetworkInterface(node=node, input_capacity=capacity)
        for node in range(n_nodes)
    ]
    policy = make_scheduler(name, interfaces, tenants, quantum=QUANTUM, tenant_cap=cap)
    # PIN checking on everywhere (gang included), so the input queue only
    # ever holds the resident tenant's messages, as every park assumes.
    policy._divert_all()
    chosen = []
    real_switch = policy._switch_to

    def recording_switch(state, pin, cycle):
        chosen.append(pin)
        real_switch(state, pin, cycle)

    policy._switch_to = recording_switch
    pins = tenants + outsiders
    cycle = 0
    for tag, (op, node, *args) in enumerate(ops):
        state = policy.states[node]
        ni = state.interface
        if op == "deliver":
            pin, burst, privileged = args
            for _ in range(burst):
                ni.deliver(
                    Message(2, (0, tag, 0, 0, 0), pin=pin, privileged=privileged)
                )
        elif op == "switch":
            real_switch(state, args[0], cycle)
        elif op == "redeliver":
            if state.active_pin:
                policy._redeliver(state, state.active_pin)
        elif op == "park":
            policy._park_resident(state)
        elif op == "serve":
            ni.next()
        elif op == "tick":
            cycle += args[0]
            chosen.clear()
            if name == "round-robin":
                expected = old_rotation_choice(policy, state)
                policy._rotate(state, cycle)
                if expected is None:
                    assert chosen == []
                else:
                    assert chosen == [expected[0]]
                    assert state.rotation == expected[1]
            elif name == "quantum":
                expected = old_quantum_choice(policy, state, cycle)
                policy._consider(state, cycle)
                assert chosen == ([] if expected is None else [expected])
        check_index(policy, pins)


FUZZ = settings(
    deadline=None,
    derandomize=True,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(scenarios())
def test_round_robin_index_matches_scan(scenario):
    run_scenario("round-robin", scenario)


@FUZZ
@given(scenarios())
def test_quantum_index_matches_scan(scenario):
    run_scenario("quantum", scenario)


@FUZZ
@given(scenarios())
def test_gang_index_matches_sweep(scenario):
    run_scenario("gang", scenario)
