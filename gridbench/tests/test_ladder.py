"""The ladder emits every rung it promises."""

from gridbench.ladder import run_ladder
from gridbench.metrics import LADDER


def test_every_rung_reports_a_positive_number():
    values = run_ladder(scale=0.01, repeats=1)
    assert set(values) == {m.name for m in LADDER}
    assert all(v > 0 for v in values.values())
    # a rung adds cost to the rung below it
    assert values["p2p.network.send_ns"] > values["simkernel.event_tie_ns"]
    assert values["service.roundtrip_us"] > values["core.engine.step_us"]
