"""Seeded inputs of the small grids."""

from __future__ import annotations

import grids
from repro.experiments.sweep import SweepSpec, plan_grid


def test_same_seed_same_inputs():
    assert grids.synth_specs(3) == grids.synth_specs(3)
    assert grids.small_sweep(3) == grids.small_sweep(3)


def test_changing_the_seed_changes_the_generated_inputs():
    assert grids.synth_specs(grids.DEFAULT_SEED) != grids.synth_specs(1)
    assert grids.synth_specs(grids.DEFAULT_SEED) != grids.synth_specs(grids.HELD_OUT_SEED)
    # Each spec is one of its stratum's variants.
    for seed in range(20):
        for spec, variants in zip(grids.synth_specs(seed), grids.STRATA):
            assert spec[len("synth("):-1] in variants


def test_small_grid_is_112_distinct_cells_for_many_seeds():
    for seed in (grids.DEFAULT_SEED, 1, 2, grids.HELD_OUT_SEED):
        plan = plan_grid(SweepSpec.from_mapping(grids.small_sweep(seed)), "default")
        cells = plan.cells()
        assert len(cells) == 112
        labels = {grids.cell_label(c.name, b, m.name) for c, b, m in cells}
        assert len(labels) == 112
        assert plan.instructions == grids.SMALL_INSTRUCTIONS
