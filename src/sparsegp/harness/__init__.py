"""Experiment harness: config parsing, runners, CSV/SVG emission, oracle suite."""
