"""Exact spectra for the oscillator with algebraically decaying mass.

Layers: `exactalg` (rational polynomial arithmetic and root isolation),
`aim_core` (the iterative quantization engine), `fh_oscillator` (model,
closed-form spectrum, eigenfunctions), `sl_oracle` (finite-difference
oracle), `cli` (command-line front end) and `verify` (its cross-checks).
Each name is imported from the layer that defines it; importing the
package loads none of them, and `cli` loads a layer only for a command
that runs it.
"""
