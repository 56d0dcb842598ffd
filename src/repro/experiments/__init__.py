"""Experiment harness: the synthetic dataset registry (paper Table II
substitutes), the method runner with phase timing / time limit / memory
accounting, and one table-builder per figure or table of the evaluation
section (see DESIGN.md §5 for the mapping)."""
