#!/usr/bin/env python3
"""Spatial hotspot maps: how the thermal-aware ASP flattens the die.

Runs the baseline and the thermal-aware policies on benchmark Bm2 over the
4-PE platform, then renders both steady-state temperature fields with the
grid-level thermal model as ASCII heat maps.  The baseline concentrates
work (a visible hot stripe); the thermal-aware schedule spreads it.

Run:  python examples/hotspot_map.py
"""

import numpy as np

from repro import GridModel, platform_spec, run_flow

SHADES = " .:-=+*#%@"


def heatmap(grid_model, powers, t_lo=None, t_hi=None):
    """Render the temperature field as ASCII art; returns (art, lo, hi)."""
    field = grid_model.temperature_map(powers)
    lo = field.min() if t_lo is None else t_lo
    hi = field.max() if t_hi is None else t_hi
    span = max(1e-9, hi - lo)
    lines = []
    for row in field:
        cells = [
            SHADES[min(len(SHADES) - 1, int((v - lo) / span * (len(SHADES) - 1)))]
            for v in row
        ]
        lines.append("  " + "".join(c * 2 for c in cells))
    return "\n".join(lines), float(field.min()), float(field.max())


def main() -> None:
    results = {
        policy: run_flow(platform_spec("Bm2", policy=policy))
        for policy in ("baseline", "thermal")
    }

    plan = results["baseline"].floorplan
    grid = GridModel(plan, rows=6, cols=24)

    # shared colour scale across both maps
    fields = {
        name: grid.temperature_map(r.schedule.average_powers())
        for name, r in results.items()
    }
    lo = min(f.min() for f in fields.values())
    hi = max(f.max() for f in fields.values())

    for name, result in results.items():
        powers = result.schedule.average_powers()
        art, fmin, fmax = heatmap(grid, powers, lo, hi)
        evaluation = result.evaluation
        print(f"== {name} ==  (die field {fmin:.1f}..{fmax:.1f} C, "
              f"PE peak {evaluation.max_temperature:.1f} C, "
              f"avg {evaluation.avg_temperature:.1f} C)")
        print(art)
        spread = max(evaluation.pe_temperatures.values()) - min(
            evaluation.pe_temperatures.values()
        )
        print(f"  PE temperature spread: {spread:.2f} C\n")

    print(f"scale: '{SHADES[0]}' = {lo:.1f} C ... '{SHADES[-1]}' = {hi:.1f} C")
    print("\nA flatter, dimmer field under the thermal-aware policy is the")
    print("paper's 'thermally even distribution' made visible.")


if __name__ == "__main__":
    main()
