"""Reproduction report generation.

Collects experiment results into one markdown document with the same
structure as EXPERIMENTS.md -- a paper-claims checklist with measured
values -- so a full reproduction run can emit its own record::

    python -m repro experiments all --report my_run.md
"""

from __future__ import annotations

import dataclasses
import io
from typing import Dict, List, Optional

from ..errors import SimulationError


@dataclasses.dataclass
class ClaimCheck:
    """One paper claim with its measured verdict."""

    claim: str
    paper: str
    measured: str
    holds: bool


@dataclasses.dataclass
class ReproductionReport:
    """Accumulates experiment sections + claim checks into markdown."""

    title: str = "Reproduction report"
    sections: List = dataclasses.field(default_factory=list)
    claims: List[ClaimCheck] = dataclasses.field(default_factory=list)
    timings: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Optional generation stamp.  Off by default so that two runs of
    #: the same experiments render byte-identical reports (the suite
    #: scheduler's serial-vs-parallel identity check depends on it);
    #: set it explicitly (e.g. ``time.strftime("%Y-%m-%d %H:%M:%S")``)
    #: to record when a report was produced.
    generated_at: Optional[str] = None

    def add_section(self, name: str, body: str, elapsed: Optional[float] = None):
        """Attach one experiment's rendered output."""
        if not name:
            raise SimulationError("section needs a name")
        self.sections.append((name, body))
        if elapsed is not None:
            self.timings[name] = elapsed

    def add_claim(
        self, claim: str, paper: str, measured: str, holds: bool
    ) -> None:
        self.claims.append(ClaimCheck(claim, paper, measured, holds))

    @property
    def claims_held(self) -> int:
        return sum(1 for check in self.claims if check.holds)

    def render(self) -> str:
        out = io.StringIO()
        out.write("# %s\n\n" % self.title)
        if self.generated_at:
            out.write("Generated %s.\n\n" % self.generated_at)
        if self.claims:
            out.write("## Claim checklist (%d/%d hold)\n\n"
                      % (self.claims_held, len(self.claims)))
            out.write("| claim | paper | measured | holds |\n")
            out.write("|---|---|---|---|\n")
            for check in self.claims:
                out.write(
                    "| %s | %s | %s | %s |\n"
                    % (
                        check.claim,
                        check.paper,
                        check.measured,
                        "yes" if check.holds else "NO",
                    )
                )
            out.write("\n")
        for name, body in self.sections:
            out.write("## %s" % name)
            if name in self.timings:
                out.write("  (%.1f s)" % self.timings[name])
            out.write("\n\n```\n%s\n```\n\n" % body.rstrip())
        return out.getvalue()

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.render())
