"""Property tests: the ledger's incremental indexes against brute-force
recomputation from the stored parents, flags and issue times.

Each example draws one threshold, grows a random DAG with random flags and
issue times (ties included), sweeps after some insertions, so ids ripen over
several insertions before a sweep, and after every insertion queries the
candidate snapshots for random visibility and aging cutoffs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tanglesim.ledger import MAX_PARENTS, TangleLedger
from tanglesim.oracle import brute_force_cumulative_weights, brute_force_tips
from tanglesim.selection import PriorityPolicy, build_candidates

MAX_SIZE = 40
MAX_THETA = 12


@st.composite
def histories(draw):
    """A threshold, and (parents, flag, time step, sweep) per insertion."""
    theta = draw(st.integers(1, MAX_THETA))
    steps = []
    for new in range(1, draw(st.integers(1, MAX_SIZE)) + 1):
        # duplicate parent ids are drawn on purpose: the ledger de-duplicates
        arity = draw(st.integers(1, min(MAX_PARENTS, new)))
        parents = draw(st.lists(st.integers(0, new - 1), min_size=arity, max_size=arity))
        flag = draw(st.booleans())
        step = draw(st.sampled_from((0.0, 0.5, 1.0, 2.5)))
        steps.append((parents, flag, step, draw(st.booleans())))
    return theta, steps


def check_candidates(ledger, queries, parents, issued, flags, confirmed):
    tips = brute_force_tips(parents)
    assert ledger.tips() == tips
    assert ledger.tip_count() == len(tips)
    for now, delay, threshold in queries:
        visible = sum(t <= now - delay for t in issued)
        if visible == 0:
            continue
        policy = PriorityPolicy(enabled=threshold is not None, aging_threshold=threshold or 30.0)
        promote_before = None if threshold is None else now - threshold
        c = build_candidates(ledger, now, delay, policy)

        priority = [
            i
            for i in range(visible)
            if i not in confirmed
            and (flags[i] or (promote_before is not None and issued[i] <= promote_before))
        ]
        visible_tips = sorted(t for t in tips if t < visible)
        non_tips = [i for i in range(visible) if i not in tips]
        assert c.priority == priority
        assert c.tips == visible_tips
        assert c.common == [t for t in visible_tips if t not in priority]
        assert c.newest_non_tip == (non_tips[-1] if non_tips else None)
        # the aged prefix holds exactly the visible ids old enough to promote
        assert c.aged == sum(
            promote_before is not None and t <= promote_before for t in issued[:visible]
        )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    histories(),
    st.lists(
        st.tuples(
            st.floats(-1.0, 120.0),  # now
            st.sampled_from((0.0, 1.0, 3.0)),  # visibility delay
            st.none() | st.sampled_from((0.5, 2.0, 10.0)),  # aging threshold
        ),
        max_size=6,
    ),
)
def test_indexes_match_brute_force(history, queries):
    theta, steps = history
    ledger = TangleLedger(theta)
    parents, flags, issued = [()], [False], [0.0]
    confirmed: set[int] = set()
    now = 0.0
    for ps, flag, step, sweep in steps:
        now += step
        ledger.add_transaction(ps, now, flag)
        parents.append(tuple(sorted(set(ps))))
        flags.append(flag)
        issued.append(now)
        weights = brute_force_cumulative_weights(parents)
        if sweep:
            newly = ledger.confirmation_sweep(now)
            assert newly == {i for i, w in weights.items() if w >= theta} - confirmed
            assert all(ledger.transaction(i).confirmed_at == now for i in newly)
            confirmed |= newly
        assert ledger.confirmed_set == confirmed
        assert all(ledger.cumulative_weight(i) == w for i, w in weights.items())
        check_candidates(ledger, queries, parents, issued, flags, confirmed)
