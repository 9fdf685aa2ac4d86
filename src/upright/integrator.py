"""Adaptive Runge-Kutta integration with dense output and fall detection.

The stepper is DOP853, Dormand and Prince's 8(5,3) pair (Hairer-Norsett-
Wanner I, II.10): twelve stages of order 8 and a combined 5th- and 3rd-order
error estimate.  Stage 13, the field at the new node, is the next step's
first; it is evaluated once the step is accepted and the next step or a
dense read needs it.  Dense output is the 7th-order interpolant, built with
three more stages per step, in one pass at a run's first dense read; the
fall step keeps the rows that located the fall.  The one event is the fall,
the rod reaching the fall threshold; it is located on the interpolant by
bisection, so fall times are resolved far below the step size.

Steps never straddle a breakpoint of the forcing, where ``dF/dt`` jumps, as
at the knots of a sampled path: a step that would cross one is clipped to
end on it, its time is stored as the node, and the step after it resumes at
the size the controller had proposed (Hairer-Norsett-Wanner I, II.6).
``F`` is continuous there, so first-same-as-last still holds.  Without
breakpoints the step sequence is that of the plain controller.

The driver never integrates through the singular radius ``|x| = 1``: the
field raises ``SingularityError`` there, and trial steps that overshoot it
are retried with half the step until the fall event can be localized.

``integrate_field`` is the one stepper: it steps one state at a time, in
plain Python floats at every width, with a step whose source is written out
for that width.  The fall step's interpolant rows are written out per width
the same way, and the fall's bisection runs on the gauge components' own
interpolant coefficients, held in locals.  The start step's heuristic is
written out per width too, and a run builds its arrays only when they are
read, so it costs its steps and little else.  The journey tools step the rod
in charts where the fall is no singularity (``dynamics.angle_field`` on the
line, ``dynamics.direction_field`` in the plane), with the gauge
``fall_dim = 1`` on the chart's first component.  A field compiled from
source lines (``kernel.function``), as the chart fields are, has its lines
spliced into each of the step's 11 stages, the forcing's among them, so a
stage calls nothing; the start step, the 13th stage, the interpolant rows
and dense reads call the field.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .dynamics import FALL_THRESHOLD, ModelParams, PhaseState, make_field
from .errors import SingularityError, StepBudgetError
from .forcing import PeriodicSignal
from .kernel import Source, compiled, renamed

__all__ = [
    "FALL_THRESHOLD",
    "IntegratorConfig",
    "EventKind",
    "Event",
    "Trajectory",
    "integrate_field",
    "evolve",
]

# DOP853 tableau (Hairer's Fortran code, to double precision): the nodes, and
# row j of ``_A`` the weights of stages 0 .. j-1 in stage j.  Rows 1-11 are
# the step's stages, row 12 the 8th-order weights (stage 12 is the field at
# the new node), rows 13-15 the dense output's extra stages.  ``_E5`` weighs
# the stages into the 5th-order error estimate, ``_A[12] - _BHH`` into the
# 3rd-order one, and row r of ``_D`` into the interpolant's coefficient r + 3.
# Zero weights are left out of every sum.  Every width takes a plain-float
# step, written out by ``_stepper``: its stage sums beat numpy's per-call
# overhead even at width 20, the variational system in the plane.
_C = (0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
      0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
      1.0, 1.0, 0.1, 0.2, 0.7777777777777778)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724,
     -9.15095847217987),
)
_E5 = (0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
       1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
       -0.022355307863886294, 0)
_BHH = (0.2440944881889764, 0, 0, 0, 0, 0, 0, 0, 0.7338466882816118, 0, 0, 0.022058823529411766)
_D = (
    (-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564),
)

# the step-size controller (Hairer's DOP853 defaults): the step changes by the
# factor SAFETY err^-EXPONENT, held within [MIN_FACTOR, MAX_FACTOR]
_EXPONENT = 1 / 8
_MIN_FACTOR = 0.333
_MAX_FACTOR = 6.0
_SAFETY = 0.9

@dataclass(frozen=True)
class IntegratorConfig:
    """Step-control tolerances and the step budget."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (0 < self.rel_tol < 1):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.abs_tol <= 0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")


class EventKind(str, Enum):
    FALL_POSITIVE = "fall_positive"
    FALL_NEGATIVE = "fall_negative"
    FALL_PLANAR = "fall_planar"


@dataclass(frozen=True)
class Event:
    kind: EventKind
    time: float
    state: np.ndarray


class Trajectory:
    """Solution of one integration with dense evaluation between step nodes.

    The run keeps the integrator's node lists; their arrays and the
    interpolant rows are built the first time they are read, so a run read
    only for its fall or its last node builds none.
    """

    def __init__(self, fun, t_nodes, y_nodes, seg_h, seg_K, fall_event,
                 n_accepted, n_rejected, fall_rows=None):
        self._fun = fun
        self._t_nodes, self._y_nodes, self._seg_h = t_nodes, y_nodes, seg_h
        self._seg_K = seg_K
        self._fall_rows = fall_rows  # the fall step's, built to locate it
        self._n = len(y_nodes[0])  # the components shown
        # the fall that ended the run early, if any
        self.fall_event: Event | None = fall_event
        self.n_accepted = int(n_accepted)
        self.n_rejected = int(n_rejected)

    _t = cached_property(lambda self: np.asarray(self._t_nodes, dtype=float))
    _y = cached_property(lambda self: np.asarray(self._y_nodes, dtype=float))
    _h = cached_property(lambda self: np.asarray(self._seg_h, dtype=float))

    @cached_property
    def _rows(self) -> np.ndarray:
        """Every step's interpolant rows on every component, built in one
        pass at the first dense read; the fall step keeps its own."""
        fall = self._fall_rows
        m = len(self._seg_h) - (fall is not None)  # the steps built here
        rows = np.empty((8, len(self._seg_h), len(self._y_nodes[0])))
        if m:
            # stage 13 is the next step's first, or the field at the end
            k13 = [k[0] for k in self._seg_K[1:]]
            if fall is None:
                k13.append(self._fun(self.t_end, self._y[-1].tolist()))
            K = np.array([(*k, k_last) for k, k_last in zip(self._seg_K, k13)], dtype=float)
            rows[:, :m] = np.array(_interpolant(1)(
                self._batch, self._t[:m, None], self._h[:m, None], [self._y[:m]],
                K.transpose(1, 0, 2)[:, None], [self._y[1:m + 1]]))[:, 0]
        if fall is not None:
            rows[:, -1] = fall
        return rows

    @property
    def t0(self) -> float:
        return float(self._t_nodes[0])

    @property
    def t_end(self) -> float:
        return float(self._t_nodes[-1])

    @property
    def t_nodes(self) -> np.ndarray:
        return self._t

    @property
    def states(self) -> np.ndarray:
        """Flat states at the step nodes, shape (n_nodes, 2*dim)."""
        return self._y[:, :self._n]

    @property
    def y_end(self) -> list:
        """The flat state at the last node, a list of the stepper's own floats."""
        return self._y_nodes[-1][:self._n]

    @property
    def dim(self) -> int:
        return self._n // 2

    def end_state(self) -> PhaseState:
        return PhaseState.from_flat(self.y_end)

    def leading(self, n: int) -> Trajectory:
        """The first ``n`` components on this run's steps: the state part of
        a state-and-variational run is the state's own run."""
        run = copy.copy(self)
        run._n = n
        ev = self.fall_event
        run.fall_event = ev and Event(ev.kind, ev.time, ev.state[:n])
        return run

    def dense_array(self, ts) -> np.ndarray:
        """Vectorized dense evaluation, shape (len(ts), 2*dim): each sample
        is ``_dense_state`` on its step, the interpolant the fall is located
        on."""
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < self._t[0]) or np.any(ts > self._t[-1]):
            raise ValueError("sample times outside the integration interval")
        if len(self._h) == 0:
            return np.broadcast_to(self.states[0], (ts.shape[0], self._n)).copy()
        idx = np.clip(np.searchsorted(self._t, ts, side="right") - 1, 0, len(self._h) - 1)
        rows = self._rows[:, idx, :self._n].transpose(0, 2, 1)
        return np.stack(_dense_state(rows, (ts - self._t[idx]) / self._h[idx]), axis=1)

    def _batch(self, t, ys):
        """``fun`` on arrays of steps: times (n, 1), a list of one (n, m)."""
        return [np.array([self._fun(tj, yj) for tj, yj in
                          zip(t.ravel().tolist(), ys[0].tolist())], dtype=float)]

    def to_csv(self, path, n_samples: int | None = None) -> None:
        """Write ``t,x1[,x2],p1[,p2],y`` rows; dense-resampled if requested."""
        if n_samples is None:
            ts, ys = self._t, self.states
        else:
            ts = np.linspace(self._t[0], self._t[-1], int(n_samples))
            ys = self.dense_array(ts)
        d = self.dim
        heights = np.sqrt(np.maximum(1.0 - np.sum(ys[:, :d] ** 2, axis=1), 0.0))
        header = "t,x1,p1,y" if d == 1 else "t,x1,x2,p1,p2,y"
        row = ",".join(["%.17g"] * (2 * d + 2)) + "\n"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            fh.writelines(row % (t, *y, hgt) for t, y, hgt in
                          zip(ts.tolist(), ys.tolist(), heights.tolist()))


def _dense_state(rows, theta):
    """The interpolant at ``theta`` from the rows of ``_interpolant``, in plain
    floats or elementwise on arrays: every row holds m components."""
    s = 1.0 - theta
    return [y + theta * (a + s * (b + theta * (c + s * (d + theta * (e + s * (f + theta * g))))))
            for y, a, b, c, d, e, f, g in zip(*rows)]


def _fall_gauge(fall_dim: int):
    """``g(y)``, nonnegative once the rod has fallen; ``None`` for no watch."""
    if fall_dim not in (0, 1, 2):
        raise ValueError(f"fall_dim must be 0, 1 or 2, got {fall_dim}")
    if fall_dim == 0:
        return None
    if fall_dim == 1:
        return lambda y: abs(y[0]) - FALL_THRESHOLD
    thr2 = FALL_THRESHOLD * FALL_THRESHOLD
    return lambda y: y[0] * y[0] + y[1] * y[1] - thr2


def _fall_event(t, y, fall_dim: int) -> Event:
    """The fall at ``(t, y)``; on the line its side is the sign of ``x``."""
    if fall_dim == 2:
        kind = EventKind.FALL_PLANAR
    elif y[0] > 0.0:
        kind = EventKind.FALL_POSITIVE
    else:
        kind = EventKind.FALL_NEGATIVE
    return Event(kind, t, np.asarray(y, dtype=float))


def _locate_fall(fall_dim, t_left, h, rows, t_right):
    """Bisect the fall to a root on the interpolant: ``_fall_gauge``'s
    expression on ``_dense_state``'s, written out on the gauge components'
    coefficients, held in locals, so every decision is theirs bit for bit.
    The full state is formed once, at the root."""
    lo, hi = t_left, t_right
    width_goal = 1e-13 * (1.0 + abs(t_right))
    y, a, b, c, d, e, f, g = (row[0] for row in rows)
    z, a2, b2, c2, d2, e2, f2, g2 = (row[fall_dim - 1] for row in rows)
    thr2 = FALL_THRESHOLD * FALL_THRESHOLD
    for _ in range(200):
        if hi - lo <= width_goal:
            break
        mid = 0.5 * (lo + hi)
        theta = (mid - t_left) / h
        s = 1.0 - theta
        x = y + theta * (a + s * (b + theta * (c + s * (d + theta * (e + s * (f + theta * g))))))
        if fall_dim == 1:
            gauge = abs(x) - FALL_THRESHOLD
        else:
            x2 = z + theta * (a2 + s * (b2 + theta * (c2 + s * (d2 + theta * (e2 + s * (
                f2 + theta * g2))))))
            gauge = x * x + x2 * x2 - thr2
        if gauge >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi, _dense_state(rows, (hi - t_left) / h)


# Stage j's component i is the local ``f"{_STAGE[j]}{i}"`` in the generated
# source; no letter clashes with the other locals' names.
_STAGE = "abcdefgijmnopqsx"


def _unpack(name, width):
    """``"y0, y1, .. "``: the targets of one vector's components."""
    return "".join(f"{name}{i}, " for i in range(width))


def _combo(weights, i):
    """e.g. ``"0.0197 * a2 + 0.0592 * b2"``: each nonzero weight times its
    stage's component ``i``, left to right."""
    return " + ".join(f"{w!r} * {_STAGE[m]}{i}" for m, w in enumerate(weights) if w)


# the prefix of a field's names where the step splices its source in; no
# name of the step's own starts with it
_FIELD = "z_"


@lru_cache
def _stepper(width: int, n: int, source: Source | None = None):
    """The trial step on ``width`` floats, compiled once per ``(width, n,
    source)``: ``bind(*values)`` returns ``step(fun, t, h, y, k1, atol,
    rtol) -> (y_new, K, err_norm)``, ``K`` the twelve stages (``k1`` and
    the calls' results as ``fun`` returned them, the spliced stages as lists).
    ``err_norm`` is DOP853's ``h e5 / sqrt(n (e5 + e3 / 100))``: ``e5`` and
    ``e3`` sum the squares of the estimates ``_E5.K`` and ``_A[12].K -
    _BHH.K`` over the first ``n`` components, scaled by ``atol + rtol
    max(|y|, |y_new|)``.  The source unpacks every stage into locals (stage
    ``k_j`` into ``a_i, b_i, ..``) and writes each component's sums out in
    full, weights as literals, in the order of a loop over the components:
    the same floats without the loop, and a stage of the wrong length raises
    where it is unpacked.

    With no ``source`` each stage calls ``fun`` and ``bind`` takes nothing.
    With the field's ``kernel.Source``, each stage is the field's own lines,
    its names under the prefix ``_FIELD``, and ``bind`` takes the values of
    its constants: the same floats as the call, without it.
    """
    comps = range(width)
    consts = ()
    if source is not None:
        if len(source.args) != width + 1 or len(source.result) != width:
            raise ValueError(f"a field of {len(source.result)} components "
                             f"on a state of {width}")
        body, result = renamed(source, _FIELD)
        args = [_FIELD + a for a in source.args]
        consts = [_FIELD + c for c in source.consts]
    src = ["def step(fun, t, h, y, k1, atol, rtol):",
           f"    {_unpack('y', width)}= y",
           f"    {_unpack('a', width)}= k1"]
    for j in range(1, 12):
        node = "t + " + ("h" if _C[j] == 1.0 else f"{_C[j]!r} * h")
        stage = [f"y{i} + h * ({_combo(_A[j], i)})" for i in comps]
        if source is None:
            src += [f"    k{j + 1} = fun({node}, [{', '.join(stage)}])",
                    f"    {_unpack(_STAGE[j], width)}= k{j + 1}"]
        else:
            src += [f"    {arg} = {value}" for arg, value in zip(args, [node, *stage])]
            src += ["    " + line for line in body]
            src += [f"    {_STAGE[j]}{i} = {value}" for i, value in enumerate(result)]
    src += [f"    r{i} = {_combo(_A[12], i)}\n    u{i} = y{i} + h * r{i}" for i in comps]
    src.append("    err5 = err3 = 0.0")
    for i in range(min(n, width)):
        src += [f"    v = abs(y{i})",
                f"    w = abs(u{i})",
                "    s = atol + rtol * (v if v > w else w)",
                f"    q = ({_combo(_E5, i)}) / s",
                "    err5 += q * q",
                f"    q = (r{i} - ({_combo(_BHH, i)})) / s",
                "    err3 += q * q"]
    if source is None:
        stages = ", ".join(f"k{j}" for j in range(1, 13))
    else:
        stages = ", ".join(["k1"] + [f"[{_unpack(_STAGE[j], width)}]" for j in range(1, 12)])
    src += ["    den = err5 + 0.01 * err3",
            f"    return [{_unpack('u', width)}], ({stages}), "
            f"h * err5 / sqrt((den if den > 0.0 else 1.0) * {n})"]
    label = "called" if source is None else "spliced"
    return compiled(src, "step", f"<DOP853 step, width {width}, field {label}>", consts)


@lru_cache
def _interpolant(width: int):
    """The rows that ``_dense_state`` reads on a step, ``y`` and 7
    coefficients, compiled once per ``width`` like ``_stepper``:
    ``rows(fun, t, h, y, K, y_new)``, ``K`` the step's 13 stages.  The
    source unpacks ``y``, ``y_new`` and the stages into locals, takes the 3
    extra stages and writes each row's sums out, left to right over the
    nonzero weights.  On plain floats each component is a float;
    ``dense_array`` passes width 1, its one component an array of steps,
    and the same source runs on it elementwise.
    """
    comps = range(width)
    src = ["def rows(fun, t, h, y, K, y_new):",
           f"    {_unpack('y', width)}= y",
           f"    {_unpack('w', width)}= y_new",
           "    " + "".join(f"({_unpack(_STAGE[j], width)}), " for j in range(13)) + "= K"]
    for j in range(13, 16):
        stage = ", ".join(f"y{i} + h * ({_combo(_A[j], i)})" for i in comps)
        src.append(f"    {_unpack(_STAGE[j], width)}= fun(t + {_C[j]!r} * h, [{stage}])")
    src += [f"    v{i} = w{i} - y{i}" for i in comps]
    terms = ["y{0}", "v{0}", "h * a{0} - v{0}", "2.0 * v{0} - h * (p{0} + a{0})"]
    rows = [[term.format(i) for i in comps] for term in terms]
    rows += [[f"h * ({_combo(row, i)})" for i in comps] for row in _D]
    src.append(f"    return [{', '.join('[' + ', '.join(row) + ']' for row in rows)}]")
    return compiled(src, "rows", f"<DOP853 interpolant, width {width}>")


@lru_cache
def _starter(width: int, n: int):
    """The first step's size on ``width`` floats, compiled once per
    ``(width, n)`` like ``_stepper``: ``start(fun, t0, y0, f0, t1, atol,
    rtol)``, Hairer-Norsett-Wanner's two-evaluation heuristic (I, II.4).
    The root mean squares of ``y0``, ``f0`` and the field's difference
    quotient along one Euler probe, over the first ``n`` components scaled
    by ``atol + rtol |y0|``, are written out as sums in component order.
    """
    ctrl = range(min(n, width))
    rms = f"sqrt(({' + '.join(f'q{i} * q{i}' for i in ctrl)}) / {n})"
    probe = ", ".join(f"y{i} + h0 * a{i}" for i in range(width))
    src = ["def start(fun, t0, y, f0, t1, atol, rtol):",
           f"    {_unpack('y', width)}= y",
           f"    {_unpack('a', width)}= f0"]
    src += [f"    s{i} = atol + rtol * abs(y{i})\n    q{i} = y{i} / s{i}" for i in ctrl]
    src += [f"    d0 = {rms}"] + [f"    q{i} = a{i} / s{i}" for i in ctrl]
    src += [f"    d1 = {rms}",
            "    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1",
            # a huge field underflows h0 to 0; the step floor keeps d2 defined
            "    h0 = min(max(h0, 1e-14 * (1.0 + abs(t0))), abs(t1 - t0))",
            f"    try:\n        f1 = fun(t0 + h0, [{probe}])"]
    src += [f"        q{i} = (f1[{i}] - a{i}) / s{i}" for i in ctrl]
    src += [f"        d2 = {rms} / h0\n    except SingularityError:\n        d2 = inf",
            "    d = max(d1, d2)",
            f"    h1 = max(1e-6, h0 * 1e-3) if d <= 1e-15 else (0.01 / d) ** {_EXPONENT!r}",
            "    return min(100 * h0, h1, abs(t1 - t0))"]
    return compiled(src, "start", f"<DOP853 start step, width {width}>")


def integrate_field(fun, t0, t1, y0, cfg: IntegratorConfig, fall_dim: int = 0,
                    n_err=None, breaks=()) -> Trajectory:
    """Integrate ``dy/dt = fun(t, y)`` from t0 to t1 (t1 >= t0).

    ``y0`` is any flat sequence of numbers, converted to Python floats once.
    ``fun(t, y)`` receives ``y`` as a list of floats and returns a sequence
    of floats of the same length (a list is fastest; a tuple or an ndarray
    gives the same result).  The stage sums run on whatever scalars the
    field returns, so they run at Python float speed only if it returns
    Python floats: with numpy scalars the step's own arithmetic takes
    about 3x (width 2) to 4x (width 20) as long (CPython 3.11, 2-core
    Xeon).  A field with a ``kernel`` attribute, ``(source, values)`` from
    ``kernel.function``, is spliced into the step's stages (``_stepper``),
    the same floats as calling it.
    ``fall_dim`` (1 or 2) watches the first ``fall_dim`` components as the
    rod's ``x``: integration stops at the first time where ``|x|`` reaches
    ``FALL_THRESHOLD``, recorded as the trajectory's ``fall_event``;
    ``fall_dim = 0`` watches nothing, and any other value raises
    ``ValueError``.  ``n_err`` limits step control to the first ``n_err``
    components (partial error control, Hairer-Norsett-Wanner I, II.4): a
    state integrated together with its variational equation then takes the
    steps it takes alone.  ``breaks`` are times strictly inside ``(t0, t1)``,
    ascending, where the field's time derivative may jump
    (``PeriodicSignal.breaks_between``): each is a step node.  They are
    drawn one at a time as the run reaches them, so an iterator over them
    is drawn only up to one past the run's end.  Raises
    ``ValueError`` for a start that is not finite, ``StepBudgetError`` if the
    step budget is exhausted or a step of the minimum size fails the error
    test, and ``SingularityError`` if the field is singular, or the step's
    error estimate is NaN or infinite, even at the minimum step.
    """
    t0 = float(t0)
    t1 = float(t1)
    if t1 < t0:
        raise ValueError(f"t1={t1} must be >= t0={t0}")
    y0 = np.asarray(y0, dtype=float).tolist()
    if not all(map(math.isfinite, y0)):
        raise ValueError(f"initial state {y0} is not finite")
    gauge = _fall_gauge(fall_dim)

    t_nodes = [t0]
    y_nodes = [y0]
    seg_h: list[float] = []
    seg_K: list = []  # per step, its 12 stages
    n_acc = n_rej = 0

    if gauge is not None and gauge(y0) >= 0.0:
        return Trajectory(fun, t_nodes, y_nodes, seg_h, seg_K,
                          _fall_event(t0, y0, fall_dim), 0, 0)

    if t1 == t0:
        return Trajectory(fun, t_nodes, y_nodes, seg_h, seg_K, None, 0, 0)

    atol, rtol, inf = cfg.abs_tol, cfg.rel_tol, math.inf
    width = len(y0)
    n = width if n_err is None else n_err
    f0 = fun(t0, y0)
    h = _starter(width, n)(fun, t0, y0, f0, t1, atol, rtol)
    source, values = getattr(fun, "kernel", (None, ()))
    step = _stepper(width, n, source)(*values)
    t, y, k1 = t0, y0, f0
    attempts = 0
    grow = _MAX_FACTOR
    knots = iter(breaks)
    t_knot = next(knots, inf)

    while t < t1:
        if attempts >= cfg.max_steps:
            raise StepBudgetError(
                f"exceeded {cfg.max_steps} step attempts at t={t:.6g} "
                f"(accepted {n_acc}, rejected {n_rej})")
        attempts += 1
        h = min(h, t1 - t)
        h_floor = 1e-14 * (1.0 + abs(t))
        if not h >= h_floor:
            h = h_floor
        landing = t + h >= t_knot
        if landing:
            h_free = h
            h = t_knot - t

        try:
            y_new, K, err_norm = step(fun, t, h, y, k1, atol, rtol)
            if not err_norm < inf:  # NaN or inf: halved like a singular stage
                raise SingularityError("error estimate not finite", t, y)
            t_new = t_knot if landing else t + h
            # Every node so far lies inside the threshold, so the rod falls
            # within this step exactly when it ends outside.  The 13th stage
            # is the next step's first and a part of the fall's interpolant.
            fell = err_norm <= 1.0 and gauge is not None and gauge(y_new) >= 0.0
            k13 = fun(t_new, y_new) if err_norm <= 1.0 and (fell or t_new < t1) else None
        except SingularityError as exc:
            if h <= 2 * h_floor:
                raise SingularityError(
                    f"field singular within one minimal step of t={t:.6g} ({exc})",
                    time=exc.time, state=exc.state) from exc
            h *= 0.5
            continue

        if err_norm > 1.0:
            n_rej += 1
            if h <= h_floor:  # the same trial step would come back forever
                raise StepBudgetError(
                    f"step size underflow at t={t:.6g}: a step of {h:.3g} fails "
                    f"the error test (accepted {n_acc}, rejected {n_rej})")
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** -_EXPONENT)
            grow = 1.0  # the step after a rejection does not grow
            continue

        n_acc += 1
        seg_h.append(h)
        seg_K.append(K)
        if fell:
            rows = _interpolant(len(y))(fun, t, h, y, (*K, k13), y_new)
            t_ev, y_ev = _locate_fall(fall_dim, t, h, rows, t_new)
            t_nodes.append(t_ev)
            y_nodes.append(y_ev)
            return Trajectory(fun, t_nodes, y_nodes, seg_h, seg_K,
                              _fall_event(t_ev, y_ev, fall_dim), n_acc, n_rej, rows)

        t_nodes.append(t_new)
        y_nodes.append(y_new)
        t, y, k1 = t_new, y_new, k13

        if landing:  # resume at the step the controller had proposed
            t_knot = next(knots, inf)
            h = h_free
        elif err_norm == 0.0:
            h *= grow
        else:
            h *= min(grow, max(_MIN_FACTOR, _SAFETY * err_norm ** -_EXPONENT))
        grow = _MAX_FACTOR

    return Trajectory(fun, t_nodes, y_nodes, seg_h, seg_K, None, n_acc, n_rej)


def _check_start(s0: PhaseState, params: ModelParams) -> None:
    """Reject a start of the wrong dimension, not finite, or at the fall threshold."""
    if s0.dim != params.dim:
        raise ValueError(f"state dim {s0.dim} does not match model dim {params.dim}")
    if not all(map(math.isfinite, s0.flat().tolist())):
        raise ValueError(f"initial state x = {s0.x}, p = {s0.p} is not finite")
    r = math.hypot(*s0.x)  # no overflow, where np.linalg.norm squares
    if r >= FALL_THRESHOLD:
        raise ValueError(
            f"initial |x| = {r:.17g} already at the fall threshold {FALL_THRESHOLD}")


def evolve(t0: float, t1: float, s0: PhaseState, params: ModelParams,
           F: PeriodicSignal, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate the rod equations from ``s0`` over ``[t0, t1]``.

    Fall detection is always on: the trajectory ends early with a fall
    event if ``|x|`` reaches ``FALL_THRESHOLD``.  The forcing's breakpoints
    inside the window are step nodes.
    """
    _check_start(s0, params)
    fun = make_field(params, F)
    return integrate_field(fun, t0, t1, s0.flat(), cfg or IntegratorConfig(),
                           params.dim, breaks=F.breaks_between(t0, t1))

