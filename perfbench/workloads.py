"""Workload definitions: the CLI commands one benchmark pass runs.

A workload is a list of sweeps (each a `dechist sweep` config), optional
extra commands, and the fits run after the resume pass.  Output paths
are relative to the pass directory; the seed becomes `sweep.base_seed`.
"""

from __future__ import annotations

from dataclasses import dataclass

FIT_METRICS = ("epsilon", "delta")


@dataclass(frozen=True)
class Sweep:
    name: str  # output directory, relative to the pass directory
    d_grid: tuple[int, ...]
    num_steps: int
    num_hamiltonian_seeds: int
    num_state_seeds: int
    family: str
    regime: str = "weak"

    def config(self, seed: int) -> dict:
        return {
            "model": {"d_grid": list(self.d_grid), "regime": self.regime},
            "grid": {"num_steps": self.num_steps},
            "init": {"family": self.family},
            "sweep": {
                "num_hamiltonian_seeds": self.num_hamiltonian_seeds,
                "num_state_seeds": self.num_state_seeds,
                "base_seed": seed,
            },
            "output": {"directory": self.name},
        }

    @property
    def realizations(self) -> int:
        return len(self.d_grid) * self.num_hamiltonian_seeds * self.num_state_seeds


@dataclass(frozen=True)
class Dynamics:
    name: str
    v_minus: int
    weights: tuple[tuple[float, float, float], ...]

    def config(self, seed: int) -> dict:
        return {
            "model": {"v_minus": self.v_minus},
            "init": {
                "family": "haar_nonequilibrium",
                "weights": [list(w) for w in self.weights],
            },
            "sweep": {"base_seed": seed},
            "output": {"directory": self.name},
        }


@dataclass(frozen=True)
class Workload:
    name: str
    sweeps: tuple[Sweep, ...]
    dynamics: tuple[Dynamics, ...] = ()
    # (sweep name, metric, grid length); each fit.csv is renamed to
    # fit_<metric>_l<length>.csv so later fits do not overwrite it.
    fits: tuple[tuple[str, str, int], ...] = ()

    def sweep(self, name: str) -> Sweep:
        return next(s for s in self.sweeps if s.name == name)

    def output_files(self) -> list[str]:
        """Every output file the correctness check reads, pass-relative."""
        files = [f"{s.name}/results.csv" for s in self.sweeps]
        files += [f"{d.name}/dynamics.csv" for d in self.dynamics]
        files += [fit_file(*f) for f in self.fits]
        return files


def fit_file(sweep: str, metric: str, length: int) -> str:
    return f"{sweep}/fit_{metric}_l{length}.csv"


def _all_fits(sweep: str, lengths: range) -> tuple[tuple[str, str, int], ...]:
    return tuple((sweep, m, l) for m in FIT_METRICS for l in lengths)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gate_mini",
            sweeps=(
                Sweep("weak", (50, 500, 2500), 4, 2, 3, "haar_equilibrium"),
                Sweep("eigenstate", (50, 500, 2500), 4, 2, 3, "eigenstate"),
                Sweep("strong", (50, 500, 2500), 4, 2, 3, "haar_equilibrium", "strong"),
            ),
            dynamics=(Dynamics("dynamics", 500, ((1.0, 0.0, 0.0), (0.2, 0.6, 0.2))),),
            fits=_all_fits("weak", range(2, 6)),
        ),
        Workload(
            name="state_fanout",
            sweeps=(Sweep("fanout", (2500,), 4, 1, 60, "haar_nonequilibrium"),),
        ),
        Workload(
            name="long_histories",
            sweeps=(Sweep("long", (5, 50, 500), 5, 3, 10, "haar_equilibrium"),),
            fits=_all_fits("long", range(2, 7)),
        ),
        # Not a benchmark workload: the D=5 sweep the checker self-test uses.
        Workload(
            name="selftest",
            sweeps=(Sweep("tiny", (5,), 3, 1, 2, "haar_equilibrium"),),
        ),
    )
}

BENCH_WORKLOADS = ("gate_mini", "state_fanout", "long_histories")
