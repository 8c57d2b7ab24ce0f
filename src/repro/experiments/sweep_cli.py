"""``python -m repro sweep`` -- incremental variant sweeps.

Evaluates a deterministic family of netlist mutants (gate retypes,
constant ties, per-cell delay nudges) of one multiplier design, either
through the cone-delta fast path (``--engine delta``, the default) or
from scratch per variant (``--engine full``).  Both engines write the
same canonical, engine-independent JSON document, so::

    python -m repro sweep --variants 20 --out a.json --engine delta
    python -m repro sweep --variants 20 --out b.json --engine full
    cmp a.json b.json

is the end-to-end byte-identity check CI runs (the ``delta-smoke``
job).  Method counts and wall time go to stdout only.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..errors import ReproError
from .store import ArtifactStore
from .sweep import ENGINES, SweepSpec, VariantSweep, render_payload


def _years_arg(text: str):
    try:
        return tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "years must be a comma-separated float list, got %r" % text
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Incremental (cone-delta) netlist variant sweeps.",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="delta",
        help="delta: patch-replay against one parent base (default);"
        " full: from-scratch compile+run per variant (the oracle)",
    )
    parser.add_argument("--width", type=int, default=16)
    parser.add_argument(
        "--kind",
        default="column",
        help="multiplier kind (am, column, row)",
    )
    parser.add_argument(
        "--variants", type=int, default=100, metavar="N",
        help="number of mutants to evaluate (default 100)",
    )
    parser.add_argument(
        "--years",
        type=_years_arg,
        default=(0.0, 10.0),
        help="comma-separated aging corners, e.g. 0,5,10 (default 0,10)",
    )
    parser.add_argument("--patterns", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--variant-seed", type=int, default=0)
    parser.add_argument("--characterize-patterns", type=int, default=2000)
    parser.add_argument(
        "--delay-extra-ns", type=float, default=0.4,
        help="additive delay of the nudge family (default 0.4)",
    )
    parser.add_argument(
        "--max-cone-fraction", type=float, default=None,
        help="fall back to a full evaluation when the arrival cone"
        " exceeds this fraction of all cells (default: never)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the canonical sweep JSON here ('-' for stdout)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="ArtifactStore directory (caches per-variant records"
        " under the 'delta' kind)",
    )
    parser.add_argument(
        "--pool", default=None, metavar="SPEC",
        help="worker pool: local:N or tcp:host:port,...",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None,
        help="variants per pool batch (default: auto)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    spec = SweepSpec(
        width=args.width,
        kind=args.kind,
        years=args.years,
        num_patterns=args.patterns,
        seed=args.seed,
        characterize_patterns=args.characterize_patterns,
        num_variants=args.variants,
        variant_seed=args.variant_seed,
        delay_extra_ns=args.delay_extra_ns,
        max_cone_fraction=args.max_cone_fraction,
    )
    store = ArtifactStore(args.store) if args.store else None
    pool = None
    if args.pool is not None:
        from ..distrib.pool import parse_pool_spec

        pool = parse_pool_spec(args.pool)
    try:
        sweep = VariantSweep(spec, store=store)
        payload, stats = sweep.run(
            engine=args.engine, pool=pool, chunk_size=args.chunk_size
        )
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if pool is not None:
            pool.close()
    text = render_payload(payload)
    if args.out == "-":
        sys.stdout.write(text)
    elif args.out:
        with open(args.out, "w") as fp:
            fp.write(text)
    methods = ", ".join(
        "%s=%d" % (name, count)
        for name, count in sorted(stats["methods"].items())
    ) or "none"
    print(
        "sweep: %d variants via %s in %.2fs (%.1f ms/variant;"
        " methods: %s; store hits: %d)"
        % (
            stats["num_variants"],
            stats["engine"],
            stats["elapsed_s"],
            1e3 * stats["elapsed_s"] / max(1, stats["num_variants"]),
            methods,
            stats["store_hits"],
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
