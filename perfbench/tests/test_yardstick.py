import time

import pytest

import worker
import yardstick


def test_speed_runs_at_least_one_unit():
    speed = yardstick.Speed()
    speed.run(0.0)
    assert speed.units == 1
    assert speed.factor() == pytest.approx(
        speed.seconds / yardstick.REF_UNIT_S)


def test_yardstick_runs_after_each_operation_outside_the_work_time():
    speed = yardstick.Speed()
    tally = worker.Tally()
    work_s = worker.run_pass([("a", lambda: time.sleep(0.02) or []),
                              ("b", lambda: [])], tally, speed)
    assert work_s == pytest.approx(sum(tally.op_ms) / 1e3)
    assert speed.units >= 2
    assert speed.seconds >= worker.YARD_SHARE * 0.02
