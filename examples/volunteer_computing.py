#!/usr/bin/env python
"""Volunteer dynamics: who is online, what you harvest, who does the admin.

The §3.7 story — "users would run the software in the same way in which
Napster or Gnutella users run their peers, but instead of sharing mp3
files they would be sharing their computational power" — made concrete:

1. a fleet of screensaver-cycle volunteers and its harvested CPU-years
   (the SETI@home accounting);
2. churned volunteers serving a real farmed workflow with re-dispatch;
3. the §2 administration contrast: per-user Globus accounts vs the
   single Triana virtual account with billing.

Run with::

    python examples/volunteer_computing.py
"""

from repro import ConsumerGrid
from repro.analysis import EXPERIMENTS, fig1_grouped, render_kv, run_batch
from repro.p2p import LAN_PROFILE
from repro.resources import PoissonChurn, ScreensaverCycle


def part_harvest() -> None:
    print("== harvested CPU time, screensaver volunteering ==\n")
    print(run_batch(EXPERIMENTS.lookup("e9_volunteer"))["table"])
    print("\n(SETI@home reported 668,852 CPU-years from ~3.1M volunteers — "
          "the same linear arithmetic at planetary scale.)")
    admin = run_batch(EXPERIMENTS.lookup("e9_admin"))["rows"][0]
    print("\n" + render_kv(
        [
            ("users", admin["users"]),
            ("Globus: admin account creations", admin["globus_admin_operations"]),
            ("Globus: CA certificates issued", admin["globus_certificates"]),
            ("Triana: admin operations (daemon install)",
             admin["virtual_admin_operations"]),
            ("Triana: self-service billing lines", admin["virtual_billing_lines"]),
        ],
        title="== administration contrast (§2) ==",
    ))


def part_churned_farm() -> None:
    print("\n== a real farmed workflow on churning volunteers ==\n")
    grid = ConsumerGrid(
        n_workers=4,
        seed=303,
        worker_profile=LAN_PROFILE,
        controller_profile=LAN_PROFILE,
        worker_efficiency=1e-5,
        retry_timeout=3.0,
        retry_interval=1.0,
    )
    grid.install_availability(
        lambda pid: PoissonChurn(mean_uptime=4.0, mean_downtime=2.0,
                                 stream=f"vol-{pid}")
    )
    report = grid.run(fig1_grouped(), iterations=16, run_until=2_000.0)
    availability = {
        pid: round(model.stats.availability, 2)
        for pid, model in grid.availability.items()
    }
    print(render_kv(
        [
            ("iterations completed", len(report.group_results)),
            ("re-dispatches after churn", report.redispatches),
            ("makespan (sim s)", report.makespan),
            ("per-volunteer availability", availability),
        ],
    ))
    print("\nEvery result arrived despite volunteers dropping out mid-run — "
          "the paper's 'distributing the code to as many computers that are "
          "available until the results are being returned'.")


if __name__ == "__main__":
    part_harvest()
    part_churned_farm()
