"""Seeded inputs for the four benchmark workloads.

Each Table-1 stand-in is rebuilt from its generator with the registry's
arguments and its generator seed shifted by the workload seed, so seed 0
reproduces ``repro.datasets.registry.table1_rows()`` exactly and every
other seed gives a fresh draw of the same shapes and sizes.

A workload may take several draws of each row in one run.  RRA's cost
depends on the draw (early abandoning is data-dependent), so averaging
over more draws is what keeps a run's figures steady across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets import registry
from repro.datasets.ecg import ecg_qtdb_0606_like, ecg_record_like
from repro.datasets.power import dutch_power_demand_like
from repro.datasets.respiration import respiration_like
from repro.datasets.telemetry import tek_like
from repro.datasets.trajectory import commute_trail
from repro.datasets.video import video_gun_like


@dataclass(frozen=True)
class Case:
    """One request input: a stand-in and the (W, P, A) it is run with."""

    key: str
    dataset: object
    window: int
    paa_size: int
    alphabet_size: int

    @property
    def series(self):
        return self.dataset.series

    @property
    def points(self) -> int:
        return int(self.dataset.series.size)


# Registry factories with the generator seed made explicit; the base
# seeds are the ones the registry hard-codes.
_TABLE1 = {
    "daily_commute": lambda s: commute_trail(
        num_trips=8, points_per_leg=110, detour_trip=5, gps_loss_trip=2, seed=s
    ).dataset,
    "dutch_power_demand": lambda s: dutch_power_demand_like(
        weeks=10, holiday_weeks=((4, 2), (6, 0), (8, 3)), seed=s
    ),
    "ecg_qtdb_0606": lambda s: ecg_qtdb_0606_like(seed=s),
    "ecg_308": lambda s: ecg_record_like("308", length=5400, seed=308 + s),
    "ecg_15": lambda s: ecg_record_like("15", length=6000, seed=15 + s),
    "ecg_108": lambda s: ecg_record_like("108", length=7200, seed=108 + s),
    "ecg_300": lambda s: ecg_record_like(
        "300", length=9000, num_anomalies=3, seed=300 + s
    ),
    "ecg_318": lambda s: ecg_record_like(
        "318", length=9000, num_anomalies=2, seed=318 + s
    ),
    "respiration_nprs43": lambda s: respiration_like(
        length=4000, name="respiration_nprs43", seed=43 + s
    ),
    "respiration_nprs44": lambda s: respiration_like(
        length=6000, name="respiration_nprs44", seed=44 + s,
        anomaly_start_fraction=0.7,
    ),
    "video_gun": lambda s: video_gun_like(
        num_cycles=12, anomaly_cycles=(6,), seed=s
    ),
    "shuttle_TEK14": lambda s: tek_like("TEK14", seed=s),
    "shuttle_TEK16": lambda s: tek_like("TEK16", seed=16 + s),
    "shuttle_TEK17": lambda s: tek_like("TEK17", seed=17 + s),
}

# Fixed subset of Table-1 rows for the ensemble workload: one full pass
# of all 14 rows takes ~17 s at 2 workers, too long for a closed loop
# with a measurable tail.  These rows span four generator families.
ENSEMBLE_ROWS = (
    "ecg_qtdb_0606",
    "daily_commute",
    "respiration_nprs43",
    "shuttle_TEK16",
)


# Generator-seed offset between the draws of one row in one run.
DRAW_STRIDE = 100_003


def table1_cases(seed: int, keys=None, draws: int = 1) -> list[Case]:
    """The Table-1 stand-ins in paper order (or the given *keys* order),
    draw by draw; draw 0 at seed 0 is the registry's row."""
    rows = {row.key: row for row in registry.table1_rows()}
    keys = list(rows) if keys is None else list(keys)
    return [
        Case(
            key if draw == 0 else f"{key}#{draw}",
            _TABLE1[key](seed + draw * DRAW_STRIDE),
            rows[key].window,
            rows[key].paa_size,
            rows[key].alphabet_size,
        )
        for draw in range(draws)
        for key in keys
    ]


def density_long_cases(seed: int) -> list[Case]:
    """Long ECG and power stand-ins (10^5 points each) for the linear-time
    density request.  The power series (W=750) sets peak memory.  Six
    ECG series keep the hit rate from moving in quarters across seeds."""
    ecg = [
        ecg_record_like(f"long_{i}", length=100_000, num_anomalies=4, seed=base + seed)
        for i, base in enumerate((1000, 2000, 4000, 5000, 6000, 7000))
    ]
    power = dutch_power_demand_like(
        weeks=150, holiday_weeks=((40, 2), (75, 0), (110, 3)), seed=3000 + seed
    )
    cases = [Case(d.name, d, 300, 4, 4) for d in ecg]
    cases.append(Case("power_long", power, 750, 6, 3))
    return cases
