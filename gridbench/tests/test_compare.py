"""``gridbench compare``: bounds, spread and exact metrics."""

from gridbench.compare import compare, verdict
from gridbench.metrics import quartiles


def metric(samples):
    q1, med, q3 = quartiles(samples)
    return {"median": med, "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def test_verdicts():
    base = metric([1.00, 1.01, 1.02, 1.00, 1.01])
    assert verdict(base, metric([1.05, 1.06, 1.05, 1.07, 1.06]), "lower", 0.10) == "ok"
    assert verdict(base, metric([1.20, 1.21, 1.22, 1.20, 1.21]), "lower", 0.10) == "worse"
    noisy = metric([1.0, 1.6, 0.9, 1.4, 1.1])
    assert verdict(base, noisy, "lower", 0.10) == "unresolved"
    # wide spread, but every sample of B beats every sample of A
    assert verdict(noisy, metric([0.5, 0.6, 0.7, 0.5, 0.8]), "lower", 0.10) == "ok"
    fast = metric([100.0, 101.0, 99.0, 100.0, 102.0])
    slow = metric([80.0, 81.0, 79.0, 80.0, 82.0])
    assert verdict(fast, slow, "higher", 0.10) == "worse"
    assert verdict(slow, fast, "higher", 0.10) == "ok"


def record(makespan=12.5, events=100, seed=0):
    m = metric([1.0, 1.01, 1.02, 1.0, 1.01])
    return {"seed": seed, "workloads": {"sim_pipeline": {
        "metrics": {"setup_s": m},
        "exact": {"ops_failed_share": 0.0, "sim_makespan_s": makespan},
        "checksum": "abc", "counters": {"simkernel.events": events},
    }}}


SPEC = {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}


def test_exact_metrics_must_agree_bit_for_bit():
    rows = compare(record(), record(), SPEC)
    assert {r[4] for r in rows} == {"ok"}
    rows = compare(record(), record(makespan=12.500000001), SPEC)
    assert [r[1] for r in rows if r[4] == "worse"] == ["sim_makespan_s"]
    rows = compare(record(), record(events=101), SPEC)
    assert [r[1] for r in rows if r[4] == "worse"] == ["simkernel.events"]


def test_other_seed_compares_only_the_failure_share():
    rows = compare(record(), record(makespan=99.0, events=7, seed=1), SPEC)
    assert {r[4] for r in rows} == {"ok"}


def test_missing_workload_or_metric_is_worse():
    b = record()
    b["workloads"]["sim_pipeline"]["metrics"] = {}
    assert "worse" in {r[4] for r in compare(record(), b, SPEC)}
    assert compare(record(), {"seed": 0, "workloads": {}}, SPEC)[0][4] == "worse"
