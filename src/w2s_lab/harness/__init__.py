"""Experiment harness: config parsing, seeded Monte Carlo runners, CSV/JSON output."""
