"""The benchmark's workloads, by the name ``--workload`` takes."""

from . import cell_geometry, config_measure, exact_series, witness_grid

WORKLOADS = {
    "exact-series": exact_series,
    "config-measure": config_measure,
    "cell-geometry": cell_geometry,
    "witness-grid": witness_grid,
}
