"""Process variation: Monte-Carlo die sampling (related work [19]).

The paper's related work motivates input-based elastic clocking as a
*process-variation* tolerance technique before it is an aging one; this
module lets the architecture be evaluated across sampled process
corners.  Per die:

* a **global** (inter-die) lognormal factor shifts every cell together
  (fast/slow corners);
* a **local** (intra-die) lognormal factor perturbs each cell
  independently (random dopant fluctuation and friends).

The per-cell factors compose with aging factors, so a die can be both
slow-corner and aged.  :func:`sample_dies` yields reproducible
per-die delay-scale arrays; ``ext`` users combine them with
:class:`~repro.timing.CompiledCircuit` directly.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterator, Optional

import numpy as np

from ..errors import ConfigError
from ..nets.netlist import Netlist


@dataclasses.dataclass(frozen=True)
class ProcessVariation:
    """Lognormal inter-/intra-die delay variation.

    Args:
        sigma_global: Standard deviation of the shared log-factor
            (0.05 ~= a +-10% 2-sigma corner spread).
        sigma_local: Standard deviation of the per-cell log-factor.
    """

    sigma_global: float = 0.05
    sigma_local: float = 0.03

    def __post_init__(self):
        if self.sigma_global < 0 or self.sigma_local < 0:
            raise ConfigError("sigmas must be non-negative")

    @classmethod
    def from_spec(cls, spec, technology=None) -> "ProcessVariation":
        """Map a :class:`~repro.montecarlo.spec.MonteCarloSpec`'s
        Vth-space sigma split onto this legacy lognormal delay model.

        Linearizing the alpha-power law around zero shift,
        ``d(log delay)/dVth = alpha_sat / overdrive``, so each volt
        sigma maps to a log-delay sigma of ``alpha_sat * sigma_v /
        overdrive`` (mean p/n overdrive).  The spatial and random
        intra-die components fold into one independent per-cell sigma
        (this model carries no floorplan; the full correlated treatment
        lives in :mod:`repro.montecarlo.sampler`).
        """
        if technology is None:
            from ..config import DEFAULT_TECHNOLOGY

            technology = DEFAULT_TECHNOLOGY
        overdrive = 0.5 * (
            technology.gate_overdrive_p + technology.gate_overdrive_n
        )
        slope = technology.alpha_sat / overdrive
        local_v = math.sqrt(
            spec.sigma_spatial_v ** 2 + spec.sigma_random_v ** 2
        )
        return cls(
            sigma_global=slope * spec.sigma_global_v,
            sigma_local=slope * local_v,
        )

    def sample_die(
        self, netlist: Netlist, rng: np.random.Generator
    ) -> np.ndarray:
        """One die's per-cell delay factors (mean ~1)."""
        num_cells = len(netlist.cells)
        global_factor = float(
            np.exp(rng.normal(0.0, self.sigma_global))
        )
        local = np.exp(rng.normal(0.0, self.sigma_local, num_cells))
        return global_factor * local


def sample_dies(
    netlist: Netlist,
    variation: ProcessVariation,
    num_dies: int,
    seed: int = 7,
) -> Iterator[np.ndarray]:
    """Reproducible stream of per-die delay-scale arrays."""
    if num_dies < 1:
        raise ConfigError("num_dies must be >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(num_dies):
        yield variation.sample_die(netlist, rng)


@dataclasses.dataclass
class YieldReport:
    """Cross-die statistics of one design point."""

    num_dies: int
    latencies_ns: np.ndarray
    error_rates: np.ndarray
    feasible: np.ndarray

    @property
    def yield_fraction(self) -> float:
        """Fraction of dies with no beyond-budget operations."""
        return float(self.feasible.mean()) if self.num_dies else 0.0

    @property
    def worst_latency_ns(self) -> float:
        return float(self.latencies_ns.max()) if self.num_dies else 0.0

    @property
    def mean_latency_ns(self) -> float:
        return float(self.latencies_ns.mean()) if self.num_dies else 0.0

    @property
    def latency_spread(self) -> float:
        """(max - min) / mean across dies -- the variation exposure."""
        if self.num_dies == 0:
            return 0.0
        spread = self.latencies_ns.max() - self.latencies_ns.min()
        return float(spread / self.latencies_ns.mean())

    # -- serialization protocol (repro.analysis.serialize) -------------

    def summary(self) -> Dict:
        """Flat JSON-ready scalars."""
        mean_error = (
            float(self.error_rates.mean()) if self.num_dies else 0.0
        )
        return {
            "num_dies": self.num_dies,
            "yield_fraction": self.yield_fraction,
            "mean_latency_ns": self.mean_latency_ns,
            "worst_latency_ns": self.worst_latency_ns,
            "latency_spread": self.latency_spread,
            "mean_error_rate": mean_error,
        }

    def to_dict(self) -> Dict:
        """Full JSON-ready round-trip payload."""
        return {
            "num_dies": self.num_dies,
            "latencies_ns": self.latencies_ns.tolist(),
            "error_rates": self.error_rates.tolist(),
            "feasible": [bool(f) for f in self.feasible],
        }

    @staticmethod
    def from_dict(data: Dict) -> "YieldReport":
        return YieldReport(
            num_dies=int(data["num_dies"]),
            latencies_ns=np.asarray(data["latencies_ns"], dtype=float),
            error_rates=np.asarray(data["error_rates"], dtype=float),
            feasible=np.asarray(data["feasible"], dtype=bool),
        )


def yield_analysis(architecture, spec, years: float = 0.0) -> YieldReport:
    """Monte-Carlo the architecture across sampled dies.

    The :class:`~repro.montecarlo.spec.MonteCarloSpec`'s die count,
    pattern count, seed and sigma split (via
    :meth:`ProcessVariation.from_spec`) configure the sweep; ``years``
    selects the single aging point this report evaluates.

    Every die shares the workload; a die is *feasible* when no operation
    blew the two-cycle budget (the Razor safety envelope held).

    All dies share the value plane (process corners only rescale
    delays), so the sweep is one value pass plus one batched
    :class:`~repro.timing.replay.ArrivalReplay` over the ``num_dies``
    corner axis -- bit-identical to compiling and running each die.
    """
    num_dies = spec.num_dies
    num_patterns = spec.num_patterns
    seed = spec.seed
    variation = ProcessVariation.from_spec(spec, architecture.technology)
    netlist = architecture.netlist
    rng = np.random.default_rng(seed)
    high = 1 << architecture.width
    md = rng.integers(0, high, num_patterns, dtype=np.uint64)
    mr = rng.integers(0, high, num_patterns, dtype=np.uint64)

    aging_scale = (
        architecture.factory.delay_scale(years) if years else None
    )
    die_scales = np.vstack(
        list(sample_dies(netlist, variation, num_dies, seed=seed + 1))
    )
    scales = (
        die_scales if aging_scale is None else die_scales * aging_scale
    )
    # Local import: repro.timing.replay imports this package's engine.
    from .replay import ArrivalReplay

    circuit = architecture.factory.circuit(0.0)
    plane = architecture.factory.value_plane({"md": md, "mr": mr})
    replayed = ArrivalReplay(circuit, plane).replay(scales)

    latencies = np.empty(num_dies)
    error_rates = np.empty(num_dies)
    feasible = np.empty(num_dies, dtype=bool)
    for k in range(num_dies):
        report = architecture.run_patterns(
            md, mr, years=0.0, stream=replayed.stream_result(k)
        ).report
        latencies[k] = report.average_latency_ns
        error_rates[k] = report.error_rate
        feasible[k] = report.deep_retry_ops == 0
    return YieldReport(
        num_dies=num_dies,
        latencies_ns=latencies,
        error_rates=error_rates,
        feasible=feasible,
    )
