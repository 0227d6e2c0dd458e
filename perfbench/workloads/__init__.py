"""The benchmark's workloads, one module each."""

NAMES = ("ldp_curves", "finite_horizon", "mc_wide", "cli_cold")
