"""Sweep runner: evaluate the three benchmark curves over a damping grid.

Modes:

* ``nocoding``     -- fidelity of the bare qubit channel.
* ``leung_optrec`` -- 4-qubit damping code with an optimized recovery.
* ``seesaw``       -- alternating optimization of both encoding and
  recovery, warm-started left-to-right along the grid.

Results go to CSV (and optionally a hand-emitted SVG plot).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .channels import (amplitude_damping, channel_fidelity, is_integer, is_real,
                       tensor_power)
from .codes import Isometry, leung_encoder
from .grid import cold_restarts
from .optimizer import SolveOptions, optimize_recovery_multistarts, seesaw

ALL_MODES = ("leung_optrec", "nocoding", "seesaw")


@dataclass(frozen=True)
class SweepConfig:
    gamma_min: float = 0.0
    gamma_max: float = 1.0
    steps: int = 21
    copies: int = 4
    modes: Tuple[str, ...] = ("nocoding", "leung_optrec", "seesaw")
    options: SolveOptions = field(default_factory=SolveOptions)

    def __post_init__(self):
        for name in ("steps", "copies"):
            if not is_integer(value := getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.options, SolveOptions):
            raise ValueError(f"options must be a SolveOptions, got {type(self.options).__name__}")
        for name in ("gamma_min", "gamma_max"):
            if not (is_real(value := getattr(self, name)) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if self.gamma_min > self.gamma_max:
            raise ValueError("gamma_min must not exceed gamma_max")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        if self.copies < 1:
            raise ValueError("copies must be >= 1")
        bad = [m for m in self.modes if m not in ALL_MODES]
        if bad:
            raise ValueError(f"modes contains unknown entries {bad}")
        if not self.modes:
            raise ValueError("modes must be nonempty")
        repeated = sorted({m for m in self.modes if self.modes.count(m) > 1})
        if repeated:
            raise ValueError(f"modes repeats {repeated}")
        if "leung_optrec" in self.modes and self.copies != 4:
            raise ValueError("leung_optrec requires copies = 4")


@dataclass(frozen=True)
class SweepRecord:
    gamma: float
    mode: str
    fidelity: float
    inner_iterations_total: int
    outer_rounds: int
    restarts_used: int
    converged: bool
    wall_time_ms: float


def _grid(config: SweepConfig) -> np.ndarray:
    return np.linspace(config.gamma_min, config.gamma_max, config.steps)


def _run_nocoding(config: SweepConfig) -> List[SweepRecord]:
    out = []
    for g in _grid(config):
        t0 = time.perf_counter()
        f = channel_fidelity(amplitude_damping(float(g)))
        out.append(SweepRecord(float(g), "nocoding", f, 0, 0, 0, True,
                               (time.perf_counter() - t0) * 1e3))
    return out


def _run_leung_optrec(config: SweepConfig) -> List[SweepRecord]:
    """Solve every gamma > 0 in one :func:`optimize_recovery_multistarts` call.

    Each of those rows gets an equal share of the call's wall time; the
    noiseless point is exact and takes no time.
    """
    enc = leung_encoder()
    grid = [float(g) for g in _grid(config)]
    # The multistart gives 0.9999999999999997, unconverged, at gamma = 0;
    # the exact row keeps the curve's noiseless endpoint at 1.0.
    out = [SweepRecord(0.0, "leung_optrec", 1.0, 0, 0, 1, True, 0.0)
           for g in grid if g == 0.0]
    noisy = [g for g in grid if g != 0.0]
    t0 = time.perf_counter()
    # A generator, so each gamma's noise channel is built only when its
    # batch is filled.
    results = optimize_recovery_multistarts(
        enc, (tensor_power(amplitude_damping(g), 4) for g in noisy))
    share = (time.perf_counter() - t0) * 1e3 / max(len(noisy), 1)
    for g, res in zip(noisy, results):
        out.append(SweepRecord(g, "leung_optrec", res.fidelity, res.iterations, 1, 1,
                               res.converged, share))
    return out


def _run_seesaw(config: SweepConfig) -> List[SweepRecord]:
    """One warm-started :func:`seesaw` call per gamma, in grid order, each
    given its entry of one :func:`cold_restarts` run over the grid.

    A row's wall time is its own call's plus an equal share of the time
    spent producing the cold restarts' entries.
    """
    opts = config.options
    grid = [float(g) for g in _grid(config)]
    noises = [amplitude_damping(g) for g in grid]
    colds = cold_restarts(noises, config.copies, opts)
    out = []
    cold_ms = 0.0
    warm: Optional[Isometry] = None
    for g, noise in zip(grid, noises):
        t0 = time.perf_counter()
        cold = next(colds)
        t1 = time.perf_counter()
        res = seesaw(noise, config.copies, opts, warm, cold)
        cold_ms += (t1 - t0) * 1e3
        out.append(SweepRecord(g, "seesaw", res.fidelity,
                               res.inner_iterations_total, res.outer_rounds,
                               res.restarts_used, res.converged,
                               (time.perf_counter() - t1) * 1e3))
        warm = res.encoder
    share = cold_ms / len(out)
    return [replace(r, wall_time_ms=r.wall_time_ms + share) for r in out]


def run_sweep(config: SweepConfig) -> List[SweepRecord]:
    """Evaluate every requested mode on the uniform damping grid.

    Records come back sorted by (mode, gamma).  The seesaw mode runs the
    grid left to right so each point can seed the next (warm start).
    """
    runners = {"nocoding": _run_nocoding,
               "leung_optrec": _run_leung_optrec,
               "seesaw": _run_seesaw}
    records: List[SweepRecord] = []
    for mode in config.modes:
        records.extend(runners[mode](config))
    records.sort(key=lambda r: (r.mode, r.gamma))
    return records


CSV_HEADER = ("gamma,mode,fidelity,inner_iterations_total,outer_rounds,"
              "restarts_used,converged,wall_time_ms")


def write_csv(records: Sequence[SweepRecord], path: str) -> None:
    """Write records in deterministic (mode, gamma) order, 17 significant digits."""
    rows = sorted(records, key=lambda r: (r.mode, r.gamma))
    try:
        with open(path, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in rows:
                fh.write(f"{r.gamma:.17g},{r.mode},{r.fidelity:.17g},"
                         f"{r.inner_iterations_total},{r.outer_rounds},"
                         f"{r.restarts_used},{'true' if r.converged else 'false'},"
                         f"{r.wall_time_ms:.17g}\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


_STYLE = {
    "nocoding": ("no coding", "stroke-dasharray=\"2,5\""),
    "leung_optrec": ("4-qubit code, optimized recovery", "stroke-dasharray=\"9,5\""),
    "seesaw": ("optimized encoding and recovery", ""),
}


def write_svg_plot(records: Sequence[SweepRecord], path: str) -> None:
    """Emit a single SVG with one polyline per mode (dotted/dashed/solid)."""
    if not records:
        raise ValueError("cannot plot an empty record list")
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 20, 50
    xs = [r.gamma for r in records]
    ys = [r.fidelity for r in records]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    pad = 0.05 * (y1 - y0) or 0.05
    y0, y1 = y0 - pad, y1 + pad

    def px(g):
        return ml + (g - x0) / (x1 - x0) * (width - ml - mr)

    def py(f):
        return height - mb - (f - y0) / (y1 - y0) * (height - mt - mb)

    modes = sorted({r.mode for r in records})
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
        f'y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
    ]
    for t in np.linspace(x0, x1, 6):
        parts.append(f'<text x="{px(t):.1f}" y="{height - mb + 18}" '
                     f'font-size="12" text-anchor="middle">{t:.2f}</text>')
    for t in np.linspace(y0, y1, 6):
        parts.append(f'<text x="{ml - 8}" y="{py(t):.1f}" font-size="12" '
                     f'text-anchor="end">{t:.3f}</text>')
    parts.append(f'<text x="{(ml + width - mr) / 2:.0f}" y="{height - 12}" '
                 f'font-size="14" text-anchor="middle">damping parameter</text>')
    for i, mode in enumerate(modes):
        label, dash = _STYLE[mode]
        pts = sorted(((r.gamma, r.fidelity) for r in records if r.mode == mode))
        coords = " ".join(f"{px(g):.2f},{py(f):.2f}" for g, f in pts)
        parts.append(f'<polyline fill="none" stroke="black" stroke-width="1.5" '
                     f'{dash} points="{coords}"/>')
        ly = mt + 20 + 18 * i
        parts.append(f'<line x1="{ml + 14}" y1="{ly - 4}" x2="{ml + 54}" '
                     f'y2="{ly - 4}" stroke="black" stroke-width="1.5" {dash}/>')
        parts.append(f'<text x="{ml + 60}" y="{ly}" font-size="12">{label}</text>')
    parts.append("</svg>")
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    """The console script's options; every default is the dataclasses' own."""
    config, opts = SweepConfig(), SolveOptions()
    p = argparse.ArgumentParser(
        prog="seesawqec",
        description="Optimize error-correcting encodings/recoveries for the "
                    "amplitude damping channel and sweep the damping parameter.")
    p.add_argument("--gamma-min", type=float, default=config.gamma_min)
    p.add_argument("--gamma-max", type=float, default=config.gamma_max)
    p.add_argument("--steps", type=int, default=config.steps)
    p.add_argument("--copies", type=int, default=config.copies)
    p.add_argument("--modes", type=str, default=",".join(config.modes),
                   help=f"comma-separated subset of {','.join(ALL_MODES)}")
    p.add_argument("--restarts", type=int, default=opts.restarts,
                   help="seesaw restarts besides the warm start; the trivial embedding "
                        "and, at 4 copies, the 4-qubit code always run")
    p.add_argument("--tol", type=float, default=opts.outer_tol,
                   help="outer (seesaw round) tolerance")
    p.add_argument("--max-outer", type=int, default=opts.max_outer_rounds)
    p.add_argument("--seed", type=int, default=opts.seed)
    p.add_argument("--csv", type=str, default=None, metavar="PATH")
    p.add_argument("--svg", type=str, default=None, metavar="PATH")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = SolveOptions(restarts=args.restarts, outer_tol=args.tol,
                            max_outer_rounds=args.max_outer, seed=args.seed)
        config = SweepConfig(
            gamma_min=args.gamma_min, gamma_max=args.gamma_max,
            steps=args.steps, copies=args.copies,
            modes=tuple(m.strip() for m in args.modes.split(",") if m.strip()),
            options=opts)
        records = run_sweep(config)
        if args.csv:
            write_csv(records, args.csv)
        if args.svg:
            write_svg_plot(records, args.svg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in records:
        print(f"{r.mode:>13s}  gamma={r.gamma:.4f}  F={r.fidelity:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
