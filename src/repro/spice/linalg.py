"""The linear-solve layer: one stacked dense solve for every Newton system.

Every Newton iteration of the stack solves, per active corner,

    (A_base + dA_fet(x)) x = b

where ``A_base`` is the time-invariant linear + companion matrix (fixed
per timestep size / integration method) and ``dA_fet`` is the
iteration's MOSFET linearization.  :func:`stamped_matrix` assembles the
active corners' matrices and :func:`batched_dense_solve` solves them in
one broadcasted LAPACK call.  Scalar analyses are a stack of one.

There is deliberately no cached-LU or low-rank path: every circuit the
engines build has more MOSFETs than half its unknowns (26 MOSFETs on
13-22 unknowns per stage-delay circuit, 86 on 42-59 for a three-segment
ring, 134 on 66-89 for the default five-segment ring), so a rank-``F``
update never beats refactorizing, and the per-step cost is Python
dispatch, not flops.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.spice.stamping import FetLinearization, SolveSpace


def stamped_matrix(
    space: SolveSpace,
    base: np.ndarray,
    lin: Optional[FetLinearization],
    active: np.ndarray,
) -> np.ndarray:
    """The active corners' Newton matrices, ``(A, m, m)``.

    ``base`` is shared across corners (``(m, m)``, the common Monte
    Carlo case where only MOSFET parameters vary) and broadcast, or
    stacked (``(S, m, m)``, per-corner resistor or capacitor overrides)
    and gathered at ``active``.  The MOSFET linearization of the active
    corners (``None`` for linear circuits) is stamped on top.
    """
    if base.ndim == 2:
        a = np.broadcast_to(base, (len(active),) + base.shape).copy()
    else:
        a = base[active]
    if lin is not None:
        space.stamp_fet_matrix(a, lin)
    return a


def batched_dense_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One broadcasted LAPACK solve of the stacked systems ``a x = b``.

    ``a`` is ``(A, m, m)``, ``b`` is ``(A, m)``.  The single linear
    solve of the stack (the Newton loop and the ragged pack's dimension
    buckets): numpy dispatches the whole stack through one ``gesv``
    loop, and per-corner results are bit-identical to solving each
    system alone.
    """
    return np.linalg.solve(a, b[..., None])[..., 0]
