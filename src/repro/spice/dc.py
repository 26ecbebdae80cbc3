"""DC operating-point analysis.

Capacitors are open circuits at DC.  The Newton iteration starts from a
zero vector (or a caller-supplied guess) and, if it fails, retries with
gmin stepping: the node-to-ground conductance starts large (so the first
solves are nearly linear) and is relaxed geometrically down to the target
gmin, reusing each solution as the next starting point.

Node initial conditions (``ics``) are honoured by clamping those nodes
with a large-conductance Norton equivalent -- the standard SPICE ``.IC``
treatment -- which is how we start ring oscillators away from their
metastable DC solution.

The solve itself is the shared :func:`repro.spice.stepper.solve_dc_plan`
(one implementation for scalar and batched analyses, through the
stepper's one Newton loop, in the plan's reduced space); this module
keeps the scalar entry points.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.spice.mna import MnaSystem, NewtonOptions
from repro.spice.netlist import Circuit
from repro.spice.stepper import solve_dc_plan


def solve_dc(
    system: MnaSystem,
    t: float = 0.0,
    ics: Optional[Dict[str, float]] = None,
    guess: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Solve for the DC operating point; returns the full solution vector."""
    plan = system.plan
    # DC runs in the reduced (currents-kept) space so the returned vector
    # reports voltage-source branch currents.
    x = solve_dc_plan(
        plan.reduced,
        plan.nominal_fets(),
        system.options,
        num_corners=1,
        t=t,
        ics=ics,
        guess=None if guess is None else np.asarray(guess, dtype=float)[None, :],
    )
    return x[0]


def dc_operating_point(
    circuit: Circuit,
    ics: Optional[Dict[str, float]] = None,
    options: Optional[NewtonOptions] = None,
) -> Dict[str, float]:
    """Compute the DC operating point of ``circuit``.

    Args:
        circuit: The circuit to analyze.
        ics: Optional node -> voltage clamps (SPICE ``.IC`` style).
        options: Newton solver options.

    Returns:
        Mapping from node name to its DC voltage.
    """
    system = MnaSystem(circuit, options)
    x = solve_dc(system, ics=ics)
    return {
        node: float(x[circuit.node_index(node)]) for node in circuit.nodes
    }
