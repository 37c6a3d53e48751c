"""Command-line front end: generation, solving, sweeps, certification, plots."""
