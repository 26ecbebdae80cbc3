"""Compiled stamp plans: circuit structure as flat scatter indices.

A :class:`StampPlan` is the *assembly layer* of the solver stack.  It is
built once per :class:`~repro.spice.netlist.Circuit` and precomputes, for
every element family (resistors, capacitors, sources, MOSFETs), the flat
scatter indices into the MNA matrix and RHS vector.  The same plan
assembles scalar ``(n, n)`` systems and stacked ``(S, n, n)`` batched
systems: every stamp method operates on the trailing axes only, so a
leading batch axis broadcasts through untouched.

Solution vectors live in the *full* ``size`` space including ground;
every assembly happens in a :class:`SolveSpace` -- the unknowns the
linear solvers actually see.  A space eliminates a set of *pinned*
nodes whose voltages are known a priori and moves their matrix columns
to the right-hand side.  Two spaces are compiled lazily per plan:

* :attr:`StampPlan.reduced`: only ground is pinned (at 0 V).  This is
  the classical ``A[1:, 1:]`` system; voltage-source branch currents
  remain unknowns, which DC analysis reports.
* :attr:`StampPlan.condensed`: every node driven (transitively) by
  voltage sources from ground is pinned, and those sources' branch
  current unknowns are absorbed.  For the paper's I/O-segment circuits
  this shrinks the matrix by roughly a third, which is where most of
  the batched Monte Carlo speedup comes from: the ``(S, n, n)``
  LAPACK solve is cubic in ``n``.

Scatter indices with duplicate targets (e.g. two resistors sharing a
node) are combined at build time: a :class:`ScatterPlan` sorts the
indices once and reduces duplicate entries with ``np.add.reduceat``,
replacing the much slower buffered ``np.add.at`` in the hot loop (with
fast paths when the compiled targets turn out to be duplicate-free).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.spice.elements import DC
from repro.spice.mosfet import THERMAL_VOLTAGE, evaluate_mosfets
from repro.spice.netlist import Circuit


class ScatterPlan:
    """Compiled scatter-add with a fixed index structure.

    Args:
        flat_idx: Target index per source entry, in source-entry order.
        valid: Optional boolean mask; entries where it is False are
            dropped (used to eliminate pinned-row/column stamps from
            solve-space plans).
    """

    def __init__(self, flat_idx: np.ndarray, valid: Optional[np.ndarray] = None):
        flat_idx = np.asarray(flat_idx, dtype=np.intp)
        self.num_entries = len(flat_idx)
        keep = np.flatnonzero(valid) if valid is not None else np.arange(
            self.num_entries, dtype=np.intp
        )
        # ``order`` gathers the kept source entries grouped by target.
        order = keep[np.argsort(flat_idx[keep], kind="stable")]
        sorted_idx = flat_idx[order]
        if len(order):
            starts = np.flatnonzero(
                np.r_[True, sorted_idx[1:] != sorted_idx[:-1]]
            ).astype(np.intp)
            targets = sorted_idx[starts]
        else:
            starts = np.empty(0, dtype=np.intp)
            targets = np.empty(0, dtype=np.intp)
        self.order = order
        self.starts = starts
        self.targets = targets
        # Fast paths: no duplicate targets -> skip reduceat; additionally
        # no dropped/reordered entries -> skip the gather too.
        self._unique = len(targets) == len(order)
        self._identity = self._unique and np.array_equal(
            order, np.arange(self.num_entries, dtype=np.intp)
        )

    def add(self, flat: np.ndarray, vals: np.ndarray) -> None:
        """``flat[..., targets] += grouped sums of vals``.

        ``flat`` is a flat view of the destination (matrix rows unrolled);
        ``vals`` has one entry per *source* entry of the plan, in the
        same order the plan was built with.  Leading batch axes on both
        arguments broadcast.
        """
        if len(self.order) == 0:
            return
        if self._identity:
            flat[..., self.targets] += vals
        elif self._unique:
            flat[..., self.targets] += vals[..., self.order]
        else:
            sums = np.add.reduceat(vals[..., self.order], self.starts, axis=-1)
            flat[..., self.targets] += sums


def _quad_vals(g: np.ndarray) -> np.ndarray:
    """Conductance values for the standard 4-entry two-terminal stamp
    ``(+ii, +jj, -ij, -ji)``; trailing axis is the element axis."""
    return np.concatenate([g, g, -g, -g], axis=-1)


@dataclass
class FetParams:
    """MOSFET model values for one assembly.

    Arrays are either ``(F,)`` (one value per device) or ``(S, F)``
    (per-corner overrides); :func:`repro.spice.mosfet.evaluate_mosfets`
    broadcasts either shape against node voltages.
    """

    polarity: np.ndarray     # (F,) float +-1
    vth: np.ndarray          # (F,) or (S, F)
    n: np.ndarray            # (F,)
    i_s: np.ndarray          # (F,) or (S, F)
    lam: np.ndarray          # (F,)

    def select(self, corners: np.ndarray) -> "FetParams":
        """Restrict per-corner arrays to the given corner indices."""
        pick = lambda a: a[corners] if a.ndim == 2 else a  # noqa: E731
        return FetParams(
            polarity=self.polarity,
            vth=pick(self.vth),
            n=self.n,
            i_s=pick(self.i_s),
            lam=self.lam,
        )


@dataclass
class FetLinearization:
    """One Newton iteration's MOSFET linearization.

    All arrays are ``(..., F)``: the Norton companion current ``ieq``
    (into the drain) and the four conductances ``d i_d / d v_{d,g,s,b}``.
    """

    g_d: np.ndarray
    g_g: np.ndarray
    g_s: np.ndarray
    g_b: np.ndarray
    ieq: np.ndarray
    _mv: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def matrix_vals(self) -> np.ndarray:
        """Values for the 8-entries-per-device Jacobian scatter, ordered
        to match :attr:`StampPlan.fet_rows` / :attr:`StampPlan.fet_cols`
        (cached: the matrix stamp and the pinned-column RHS correction
        share one evaluation per Newton iteration)."""
        if self._mv is None:
            self._mv = np.concatenate(
                [self.g_d, self.g_g, self.g_s, self.g_b,
                 -self.g_d, -self.g_g, -self.g_s, -self.g_b],
                axis=-1,
            )
        return self._mv

    def rhs_vals(self) -> np.ndarray:
        """Values for the 2-rows-per-device RHS scatter ``(drain, source)``."""
        return np.concatenate([-self.ieq, self.ieq], axis=-1)


class SolveSpace:
    """One compiled unknown space of a :class:`StampPlan`.

    A space is defined by a set of *pinned* nodes (voltages known a
    priori) and the subset of voltage sources whose branch-current
    unknowns are kept.  Ground is always eliminated.  Matrix stamps whose
    row or column is pinned are dropped at build time; pinned *columns*
    reappear as right-hand-side corrections ``b -= B_pin @ v_pinned(t)``
    with ``B_pin`` assembled from the same entry lists.

    With ``absorb_sources=False`` this is the classical ground-reduced
    ``A[1:, 1:]`` system.  With ``absorb_sources=True``, nodes reachable
    from ground through voltage sources are pinned (their voltage is the
    accumulated source waveform) and those sources drop out entirely.
    """

    def __init__(self, plan: "StampPlan", absorb_sources: bool):
        self.plan = plan
        circuit = plan.circuit
        size = plan.size
        num_nodes = plan.num_nodes

        # -- known-voltage closure ------------------------------------
        # known[node] = (constant, ((coef, waveform), ...)) with the
        # voltage v(t) = constant + sum(coef * wf.value(t)).
        known = {0: (0.0, ())}
        absorbed = [False] * plan.num_vsrc
        if absorb_sources:
            changed = True
            while changed:
                changed = False
                for k, src in enumerate(circuit.vsources):
                    if absorbed[k]:
                        continue
                    i = circuit.node_index(src.npos)
                    j = circuit.node_index(src.nneg)
                    if i in known and j in known:
                        # Redundant source (a loop of sources); assume the
                        # netlist is consistent and drop its equation.
                        absorbed[k] = True
                    elif j in known:
                        const, terms = known[j]
                        if isinstance(src.waveform, DC):
                            known[i] = (const + src.waveform.level, terms)
                        else:
                            known[i] = (const, terms + ((1.0, src.waveform),))
                        absorbed[k] = True
                    elif i in known:
                        const, terms = known[i]
                        if isinstance(src.waveform, DC):
                            known[j] = (const - src.waveform.level, terms)
                        else:
                            known[j] = (const, terms + ((-1.0, src.waveform),))
                        absorbed[k] = True
                    else:
                        continue
                    changed = True

        self.pinned_nodes = np.array(
            sorted(n for n in known if n != 0), dtype=np.intp
        )
        self.num_pinned = len(self.pinned_nodes)
        pin_const = np.zeros(self.num_pinned)
        pin_dynamic: List[Tuple[int, float, object]] = []
        for p, node in enumerate(self.pinned_nodes):
            const, terms = known[int(node)]
            pin_const[p] = const
            for coef, wf in terms:
                pin_dynamic.append((p, coef, wf))
        self._pin_const = pin_const
        self._pin_dynamic = pin_dynamic

        # -- unknown ordering: kept nodes first, then kept currents ----
        col_map = np.full(size, -1, dtype=np.intp)
        kept_nodes = np.array(
            [n for n in range(1, num_nodes) if n not in known], dtype=np.intp
        )
        col_map[kept_nodes] = np.arange(len(kept_nodes))
        kept_vsrc = [k for k in range(plan.num_vsrc) if not absorbed[k]]
        vsrc_full = num_nodes + np.array(kept_vsrc, dtype=np.intp)
        col_map[vsrc_full] = len(kept_nodes) + np.arange(len(kept_vsrc))
        self.col_map = col_map
        self.num_kept_nodes = len(kept_nodes)
        self.kept = np.concatenate([kept_nodes, vsrc_full])
        self.dim = len(self.kept)
        dim = self.dim

        pin_map = np.full(size, -1, dtype=np.intp)
        pin_map[self.pinned_nodes] = np.arange(self.num_pinned)

        # -- static matrix: gmin diagonal + kept-source incidence ------
        a_static = np.zeros((dim, dim))
        diag = np.arange(self.num_kept_nodes)
        a_static[diag, diag] += plan.gmin
        for k in kept_vsrc:
            src = circuit.vsources[k]
            rk = col_map[num_nodes + k]
            i = col_map[circuit.node_index(src.npos)]
            j = col_map[circuit.node_index(src.nneg)]
            # A kept source never has a pinned terminal (it would have
            # been absorbed); dropped entries here are ground only.
            if i >= 0:
                a_static[i, rk] += 1.0
                a_static[rk, i] += 1.0
            if j >= 0:
                a_static[j, rk] -= 1.0
                a_static[rk, j] -= 1.0
        self.a_static = a_static

        # -- scatter plans in this space ------------------------------
        npin = max(self.num_pinned, 1)

        def matrix_plan(rows: np.ndarray, cols: np.ndarray) -> ScatterPlan:
            r, c = col_map[rows], col_map[cols]
            return ScatterPlan(r * dim + c, valid=(r >= 0) & (c >= 0))

        def pin_plan(rows: np.ndarray, cols: np.ndarray) -> ScatterPlan:
            r, p = col_map[rows], pin_map[cols]
            return ScatterPlan(r * npin + p, valid=(r >= 0) & (p >= 0))

        def vector_plan(rows: np.ndarray) -> ScatterPlan:
            r = col_map[rows]
            return ScatterPlan(r, valid=r >= 0)

        res_rows = np.concatenate([plan.res_i, plan.res_j, plan.res_i, plan.res_j])
        res_cols = np.concatenate([plan.res_i, plan.res_j, plan.res_j, plan.res_i])
        self.res_a = matrix_plan(res_rows, res_cols)
        self.res_pin = pin_plan(res_rows, res_cols)

        cap_rows = np.concatenate([plan.cap_n1, plan.cap_n2, plan.cap_n1, plan.cap_n2])
        cap_cols = np.concatenate([plan.cap_n1, plan.cap_n2, plan.cap_n2, plan.cap_n1])
        self.cap_a = matrix_plan(cap_rows, cap_cols)
        self.cap_pin = pin_plan(cap_rows, cap_cols)
        self.cap_b = vector_plan(np.concatenate([plan.cap_n1, plan.cap_n2]))

        self.fet_a = matrix_plan(plan.fet_rows, plan.fet_cols)
        self.fet_b = vector_plan(plan.fet_rhs_rows)
        # Jacobian entries whose column is pinned, compacted so the
        # per-iteration RHS correction only touches those entries.
        fet_r = col_map[plan.fet_rows]
        fet_p = pin_map[plan.fet_cols]
        self.fet_pin_src = np.flatnonzero((fet_r >= 0) & (fet_p >= 0))
        self.fet_pin_b = ScatterPlan(fet_r[self.fet_pin_src])
        self.fet_pin_sel = fet_p[self.fet_pin_src]
        self.has_fet_pins = len(self.fet_pin_src) > 0

        # -- independent sources in this space ------------------------
        b_static = np.zeros(dim)
        dynamic: List[Tuple[int, float, object]] = []
        for k in kept_vsrc:
            src = circuit.vsources[k]
            rk = col_map[num_nodes + k]
            if isinstance(src.waveform, DC):
                b_static[rk] += src.waveform.level
            else:
                dynamic.append((rk, 1.0, src.waveform))
        for src in circuit.isources:
            for node, sign in ((src.npos, -1.0), (src.nneg, 1.0)):
                r = col_map[circuit.node_index(node)]
                if r < 0:
                    # Current into a pinned node is absorbed by the
                    # pinning source; its KCL row is not solved.
                    continue
                if isinstance(src.waveform, DC):
                    b_static[r] += sign * src.waveform.level
                else:
                    dynamic.append((r, sign, src.waveform))
        self.b_static = b_static
        self._dynamic_sources = dynamic

    # ------------------------------------------------------------------
    # Pinned voltages and solution scatter
    # ------------------------------------------------------------------
    def pinned_voltages(self, t: float) -> np.ndarray:
        """Known node voltages at time ``t``, ordered as ``pinned_nodes``."""
        v = self._pin_const.copy()
        for p, coef, wf in self._pin_dynamic:
            v[p] += coef * wf.value(t)
        return v

    def fet_pin_values(self, vpin: np.ndarray) -> np.ndarray:
        """Per-Jacobian-entry pinned voltage for the RHS correction."""
        return vpin[self.fet_pin_sel]

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def assemble_linear(self, res_g: Optional[np.ndarray] = None) -> np.ndarray:
        """Time-invariant (resistive + source-incidence) matrix.

        ``res_g`` is ``(R,)`` or ``(S, R)``; a leading batch axis yields
        a stacked ``(S, dim, dim)`` assembly.
        """
        if res_g is None:
            res_g = self.plan.res_g0
        res_g = np.asarray(res_g, dtype=float)
        shape = res_g.shape[:-1] + (self.dim, self.dim)
        a = np.zeros(shape)
        a += self.a_static
        self.res_a.add(a.reshape(shape[:-2] + (-1,)), _quad_vals(res_g))
        return a

    def bpin_linear(self, res_g: Optional[np.ndarray] = None) -> np.ndarray:
        """Static part of the pinned-column correction matrix ``B_pin``.

        Per step the RHS becomes ``b -= B_pin @ v_pinned(t)``; shape is
        ``(dim, P)`` (or ``(S, dim, P)`` for per-corner resistors).
        """
        if res_g is None:
            res_g = self.plan.res_g0
        res_g = np.asarray(res_g, dtype=float)
        shape = res_g.shape[:-1] + (self.dim, self.num_pinned)
        b = np.zeros(shape)
        if self.num_pinned:
            self.res_pin.add(b.reshape(shape[:-2] + (-1,)), _quad_vals(res_g))
        return b

    def bpin_capacitors(self, geq: np.ndarray) -> np.ndarray:
        """Companion-conductance part of ``B_pin`` for conductances ``geq``."""
        geq = np.asarray(geq, dtype=float)
        shape = geq.shape[:-1] + (self.dim, self.num_pinned)
        b = np.zeros(shape)
        if self.num_pinned:
            self.cap_pin.add(b.reshape(shape[:-2] + (-1,)), _quad_vals(geq))
        return b

    def source_rhs_into(self, b: np.ndarray, t: float) -> None:
        """Add independent-source contributions at time ``t`` into ``b``."""
        b += self.b_static
        for row, sign, waveform in self._dynamic_sources:
            b[..., row] += sign * waveform.value(t)

    def stamp_capacitor_matrix(self, a: np.ndarray, geq: np.ndarray) -> None:
        """Stamp companion conductances ``geq`` (per capacitor) into ``a``."""
        self.cap_a.add(a.reshape(a.shape[:-2] + (-1,)), _quad_vals(geq))

    def stamp_capacitor_rhs(self, b: np.ndarray, ieq: np.ndarray) -> None:
        """Stamp companion currents ``ieq`` (into n1) into ``b``."""
        self.cap_b.add(b, np.concatenate([ieq, -ieq], axis=-1))

    def stamp_fet_matrix(self, a: np.ndarray, lin: FetLinearization) -> None:
        """Stamp a MOSFET linearization's Jacobian entries into ``a``."""
        self.fet_a.add(a.reshape(a.shape[:-2] + (-1,)), lin.matrix_vals())

    def stamp_fet_rhs(self, b: np.ndarray, lin: FetLinearization) -> None:
        """Stamp a MOSFET linearization's Norton currents into ``b``."""
        self.fet_b.add(b, lin.rhs_vals())

    def stamp_fet_pin_rhs(
        self, b: np.ndarray, lin: FetLinearization, vpin_entries: np.ndarray
    ) -> None:
        """RHS correction for Jacobian entries whose column is pinned:
        ``b[row] -= g * v_pinned(col)`` (``vpin_entries`` per entry)."""
        if not self.has_fet_pins:
            return
        vals = lin.matrix_vals()[..., self.fet_pin_src]
        self.fet_pin_b.add(b, -(vals * vpin_entries))


class StampPlan:
    """Compiled assembly structure of one circuit.

    The plan is parameter-free: element *values* (conductances,
    capacitances, MOSFET model arrays) are passed to the assembly
    methods, which lets one plan serve both the nominal scalar system
    and any number of per-corner overridden batched systems.  The plan
    holds element incidence in full coordinates and linearizes MOSFETs;
    stamps live on the lazily compiled :attr:`reduced` /
    :attr:`condensed` :class:`SolveSpace` views.
    """

    def __init__(self, circuit: Circuit, gmin: float = 0.0):
        self.circuit = circuit
        self.gmin = gmin
        self.num_nodes = circuit.num_nodes
        self.num_vsrc = len(circuit.vsources)
        self.size = self.num_nodes + self.num_vsrc

        # -- resistors ------------------------------------------------
        self.res_i = np.array(
            [circuit.node_index(r.n1) for r in circuit.resistors], dtype=np.intp
        )
        self.res_j = np.array(
            [circuit.node_index(r.n2) for r in circuit.resistors], dtype=np.intp
        )
        self.num_resistors = len(self.res_i)
        self.res_g0 = np.array([r.conductance for r in circuit.resistors])

        # -- capacitors -----------------------------------------------
        self.cap_n1 = np.array(
            [circuit.node_index(c.n1) for c in circuit.capacitors], dtype=np.intp
        )
        self.cap_n2 = np.array(
            [circuit.node_index(c.n2) for c in circuit.capacitors], dtype=np.intp
        )
        self.num_caps = len(self.cap_n1)
        self.cap_c0 = np.array([c.capacitance for c in circuit.capacitors])

        # -- MOSFETs --------------------------------------------------
        fets = circuit.mosfets
        self.num_fets = len(fets)
        self.fet_d = np.array([circuit.node_index(f.drain) for f in fets], dtype=np.intp)
        self.fet_g = np.array([circuit.node_index(f.gate) for f in fets], dtype=np.intp)
        self.fet_s = np.array([circuit.node_index(f.source) for f in fets], dtype=np.intp)
        self.fet_b = np.array([circuit.node_index(f.bulk) for f in fets], dtype=np.intp)
        d, g, s, b = self.fet_d, self.fet_g, self.fet_s, self.fet_b
        self.fet_rows = np.concatenate([d, d, d, d, s, s, s, s])
        self.fet_cols = np.concatenate([d, g, s, b, d, g, s, b])
        self.fet_rhs_rows = np.concatenate([d, s])

        self.fet_n = np.array([f.model.n for f in fets])
        self.fet_lam = np.array([f.model.lam for f in fets])
        self.fet_vth0 = np.array([f.model.vth for f in fets])
        self.fet_kp = np.array([f.model.kp for f in fets])
        self.fet_w = np.array([f.w for f in fets])
        self.fet_l = np.array([f.l for f in fets])
        self.fet_polarity = np.array([f.model.polarity for f in fets], dtype=int)
        self._fet_sign = self.fet_polarity.astype(float)

        self._reduced: Optional[SolveSpace] = None
        self._condensed: Optional[SolveSpace] = None

    # ------------------------------------------------------------------
    # Solve spaces (compiled lazily)
    # ------------------------------------------------------------------
    @property
    def reduced(self) -> SolveSpace:
        """Ground-eliminated space (all branch currents kept)."""
        if self._reduced is None:
            self._reduced = SolveSpace(self, absorb_sources=False)
        return self._reduced

    @property
    def condensed(self) -> SolveSpace:
        """Source-absorbed space (pinned rails and inputs eliminated)."""
        if self._condensed is None:
            self._condensed = SolveSpace(self, absorb_sources=True)
        return self._condensed

    # ------------------------------------------------------------------
    # MOSFET model values
    # ------------------------------------------------------------------
    def nominal_fets(self) -> Optional[FetParams]:
        """Model values with no per-corner overrides applied."""
        if self.num_fets == 0:
            return None
        return self.fet_params()

    def fet_params(
        self,
        dvth: Optional[np.ndarray] = None,
        dl_rel: Optional[np.ndarray] = None,
    ) -> FetParams:
        """Model values with optional ``(S, F)`` mismatch overrides."""
        vth = self.fet_vth0 if dvth is None else self.fet_vth0 + dvth
        leff = self.fet_l if dl_rel is None else self.fet_l * (1.0 + dl_rel)
        beta = self.fet_kp * self.fet_w / leff
        return FetParams(
            polarity=self._fet_sign,
            vth=vth,
            n=self.fet_n,
            i_s=2.0 * self.fet_n * beta * THERMAL_VOLTAGE**2,
            lam=self.fet_lam,
        )

    # ------------------------------------------------------------------
    # MOSFET linearization
    # ------------------------------------------------------------------
    def linearize_fets(
        self, fets: FetParams, x: np.ndarray
    ) -> Optional[FetLinearization]:
        """Linearize all MOSFETs around the solution vector ``x``.

        ``x`` has shape ``(..., size)`` (full coordinates, ground
        included); returns ``None`` for circuits without MOSFETs.
        """
        if self.num_fets == 0:
            return None
        vd = x[..., self.fet_d]
        vg = x[..., self.fet_g]
        vs = x[..., self.fet_s]
        vb = x[..., self.fet_b]
        i_d, g_d, g_g, g_s, g_b = evaluate_mosfets(
            fets.polarity, fets.vth, fets.n, fets.i_s, fets.lam, vd, vg, vs, vb
        )
        ieq = i_d - g_d * vd - g_g * vg - g_s * vs - g_b * vb
        return FetLinearization(g_d=g_d, g_g=g_g, g_s=g_s, g_b=g_b, ieq=ieq)
