import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamda.errors import ConfigError, ContractError
from lamda.freezing import FreezeSchedule, trainable_rows


def test_endpoints():
    sched = FreezeSchedule(rank=8, freeze_iters=100, total_iters=200)
    assert trainable_rows(sched, 0) == 8
    assert trainable_rows(sched, 100) == 0
    assert trainable_rows(sched, 200) == 0


def test_halfway():
    sched = FreezeSchedule(rank=8, freeze_iters=100, total_iters=200)
    assert trainable_rows(sched, 50) == 4
    assert trainable_rows(sched, 30) == 6  # round(8 * 0.7) = round(5.6)


def test_zero_horizon_never_trains_b():
    sched = FreezeSchedule(rank=8, freeze_iters=0, total_iters=200)
    assert trainable_rows(sched, 0) == 0


def test_time_average_matches_half_horizon():
    # Sum over the whole run of the rounded ramp equals r*t_i/2 up to
    # rounding slack below half a row per step.
    r, ti, total = 32, 600, 2000
    sched = FreezeSchedule(rank=r, freeze_iters=ti, total_iters=total)
    trace = sum(trainable_rows(sched, t) for t in range(total))
    assert abs(trace - r * ti / 2) <= ti / 2


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 64), st.integers(1, 500), st.integers(0, 500))
def test_monotone_non_increasing(rank, ti, extra):
    sched = FreezeSchedule(rank=rank, freeze_iters=ti, total_iters=ti + extra)
    rows = [trainable_rows(sched, t) for t in range(sched.total_iters + 1)]
    assert rows[0] in (rank, rank - 0)  # round(r * 1.0) == r
    assert all(b <= a for a, b in zip(rows, rows[1:]))
    assert all(0 <= x <= rank for x in rows)
    assert rows[-1] == 0


def test_validation():
    with pytest.raises(ConfigError):
        FreezeSchedule(rank=0, freeze_iters=1, total_iters=2)
    with pytest.raises(ConfigError):
        FreezeSchedule(rank=4, freeze_iters=5, total_iters=2)
    sched = FreezeSchedule(rank=4, freeze_iters=2, total_iters=4)
    with pytest.raises(ContractError):
        trainable_rows(sched, 5)
