"""Floating-point LP feasibility via HiGHS — the fast pruning path.

The schema DFS asks thousands of "is this prefix still realizable?"
questions; answering each with the exact Fraction simplex is needlessly
slow.  The exact shortcuts of :mod:`repro.solver.shortcuts` answer many
of them first; the rest come here.  No float answer is taken on trust:

* *feasible* never prunes.  The vertex is left on the
  :class:`RowMatrix`, and the DFS keeps it as the prefix's witness only
  after rounding it to integers and checking it exactly; leaf verdicts
  are confirmed by the exact solver (see
  :mod:`repro.checker.parameterized`).
* *infeasible* prunes, so it must come with a proof.  HiGHS's dual ray
  is rounded to integer Farkas multipliers and checked exactly in
  ``int`` (:func:`repro.solver.shortcuts.refutes`).  A ray that does
  not round to a certificate makes the answer undecided.

``None`` (no answer) is returned on any solver hiccup, which callers
treat as "ask the exact simplex"; each such hiccup is logged as one
``floatlp.*`` event on this module's logger.

One path: constraint rows (:data:`repro.solver.linear.Row`) become a
row-wise sparse matrix with two-sided row bounds and ``x >= 0``, handed
to a HiGHS object from scipy's private binding
(``scipy.optimize._highspy._core``) with no integrality, so HiGHS
solves the LP relaxation.  Each thread keeps one such object and
reuses it: ``clearSolver``, ``passModel``, ``run``.  (A shared object
gives wrong answers under threads.)  Every input is a
:class:`RowMatrix`; the schema DFS hands in one that extends its parent
prefix's matrix, so each row is converted once per DFS path.  Without
numpy, scipy or that binding, every answer is undecided and the exact
simplex decides on the same rows.

On the param-validity workload (cc85a, fmr05, rabin83 validity; 862
LPs, median 66 rows by 60 columns; 2-vCPU 2.1 GHz VM, python 3.11,
scipy 1.17) a feasible answer costs about 0.6 ms, most of it HiGHS's
own solve, and an infeasible one about 0.9 ms: fetching the dual ray
takes about 0.3 ms and checking the certificate about 0.1 ms.  scipy's
public MILP front end, which builds a fresh HiGHS object behind an
input-checking wrapper, cost about 1.8 ms a call.
"""

from __future__ import annotations

import logging
import threading
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence

from repro.solver.linear import Row
from repro.solver.shortcuts import refutes, satisfies

try:  # numpy and scipy are optional; the exact solver always works.
    import numpy as np
    from scipy.optimize._highspy import _core

    _OPTIMAL = _core.HighsModelStatus.kOptimal
    _INFEASIBLE = _core.HighsModelStatus.kInfeasible
    _ROWWISE = int(_core.MatrixFormat.kRowwise)
    _MINIMIZE = int(_core.ObjSense.kMinimize)
    _HAVE_SCIPY = True
except Exception:  # pragma: no cover - environment without numpy or scipy
    _HAVE_SCIPY = False

logger = logging.getLogger(__name__)

#: Largest denominator a dual-ray entry (scaled to at most 1 in
#: absolute value) is rounded to before the ray is made integral.  The
#: schema LPs' rays round within it (every one of 5,370 infeasible
#: answers across the golden cases and six more obligation bundles); denser
#: systems, whose bases have larger determinants, may need more and then
#: fall back to the exact simplex.
MAX_DENOMINATOR = 1000

_local = threading.local()


def _highs():
    """This thread's HiGHS object, created on first use."""
    highs = getattr(_local, "highs", None)
    if highs is None:
        highs = _core._Highs()
        # Silence the console only: switching ``output_flag`` off also
        # changes which vertex HiGHS returns.
        highs.setOptionValue("log_to_console", False)
        _local.highs = highs
    return highs


class RowMatrix:
    """Constraint rows in CSR form, converted on first use.

    ``base``, when given, is the matrix of a prefix of ``rows``: its
    arrays are copied and only the remaining rows converted, so a chain
    of growing problems (the schema DFS, child = parent rows + a few)
    converts every row once.  Columns are numbered in order of first
    appearance.

    The exact shortcuts of :mod:`repro.solver.shortcuts` keep their
    per-prefix state here, so it travels down the DFS path with the
    matrix: ``bounds`` (propagated variable bounds), ``witness`` (an
    integer point satisfying every row), ``vertex`` (the float point
    :func:`float_feasible` found, if any) and ``certificate`` (the
    integer Farkas multipliers behind an infeasible answer, if any).
    """

    __slots__ = (
        "rows", "base", "_csr", "bounds", "witness", "vertex", "certificate"
    )

    def __init__(self, rows: Sequence[Row], base: Optional["RowMatrix"] = None):
        self.rows = rows
        self.base = base
        self._csr = None
        self.bounds = None
        self.witness = None
        self.vertex = None
        self.certificate = None

    def new_rows(self) -> Sequence[Row]:
        """The rows that ``base`` lacks (all rows when there is none)."""
        if self.base is None:
            return self.rows
        return self.rows[len(self.base.rows):]

    def csr(self):
        """``(columns, indptr, indices, data, lower, upper)`` as lists."""
        if self._csr is None:
            if self.base is None:
                columns: Dict[str, int] = {}
                indptr: List[int] = [0]
                indices: List[int] = []
                data: List[float] = []
                lower: List[float] = []
                upper: List[float] = []
            else:
                columns, indptr, indices, data, lower, upper = (
                    part.copy() for part in self.base.csr()
                )
            for coeffs, const, is_eq in self.rows[len(lower):]:
                for name, coeff in coeffs:
                    indices.append(columns.setdefault(name, len(columns)))
                    data.append(coeff)
                indptr.append(len(indices))
                # coeffs.x + const >= 0  <=>  coeffs.x >= -const (== if is_eq)
                lower.append(-const)
                upper.append(-const if is_eq else float("inf"))
            self._csr = (columns, indptr, indices, data, lower, upper)
        return self._csr


def farkas_certificate(rows: Sequence[Row], ray) -> Optional[Dict[int, int]]:
    """Integer Farkas multipliers rounded from a float dual ray.

    ``ray`` has one float per row.  Its entries are scaled so the
    largest is 1 in absolute value, each is rounded to the nearest
    fraction with a denominator of at most :data:`MAX_DENOMINATOR`, and
    the result is scaled by the least common multiple of those
    denominators.  Both signs are tried, since solvers differ in their
    sign convention.  Returns ``{row index: multiplier}`` (non-zero
    entries only) once :func:`refutes` accepts it exactly, else ``None``.
    """
    ray = np.asarray(ray, dtype=float)
    support = np.flatnonzero(ray)
    if not support.size:
        return None
    scaled = ray[support] / np.abs(ray[support]).max()
    fractions = [
        Fraction(value).limit_denominator(MAX_DENOMINATOR)
        for value in scaled.tolist()
    ]
    scale = lcm(*(fraction.denominator for fraction in fractions))
    weights = {
        index: fraction.numerator * (scale // fraction.denominator)
        for index, fraction in zip(support.tolist(), fractions)
        if fraction
    }
    for sign in (1, -1):
        multipliers = {index: sign * weight for index, weight in weights.items()}
        if refutes(rows, multipliers):
            return multipliers
    return None


def float_solve(matrix: RowMatrix):
    """Feasibility plus the evidence for it.

    Returns ``(feasible, evidence)``.  ``feasible`` is ``True``,
    ``False`` or ``None`` (undecided).  When feasible, ``evidence`` maps
    variables to the floats of HiGHS's vertex.  When infeasible, it is
    the integer Farkas certificate ``{row index: multiplier}`` that
    :func:`repro.solver.shortcuts.refutes` has accepted.  Otherwise it
    is ``None``.
    """
    if not _HAVE_SCIPY:
        return None, None
    columns, indptr, indices, data, lower, upper = matrix.csr()
    if not columns:  # constant rows only: decide them directly
        for index, (low, up) in enumerate(zip(lower, upper)):
            if not low <= 0 <= up:  # const < 0, or an equality's const > 0
                return False, {index: 1 if low > 0 else -1}
        return True, {}
    n = len(columns)
    highs = _highs()
    try:
        highs.clearSolver()
        highs.passModel(
            n, len(lower), len(data), _ROWWISE, _MINIMIZE, 0.0,
            np.zeros(n), np.zeros(n), np.full(n, np.inf),
            np.array(lower, dtype=float), np.array(upper, dtype=float),
            np.array(indptr, dtype=np.int32), np.array(indices, dtype=np.int32),
            np.array(data, dtype=float), np.zeros(n, dtype=np.int32),
        )
        highs.run()
        status = highs.getModelStatus()
        if status == _OPTIMAL:
            return True, dict(zip(columns, highs.getSolution().col_value))
        if status == _INFEASIBLE:
            _status, has_ray, ray = highs.getDualRay()
            certificate = (
                farkas_certificate(matrix.rows, ray) if has_ray else None
            )
            if certificate is not None:
                return False, certificate
            logger.warning(
                "float LP infeasible without an integer certificate; "
                "answer undecided",
                extra={
                    "event": "floatlp.uncertified",
                    "has_ray": has_ray,
                    "rows": len(lower),
                    "columns": n,
                },
            )
            return None, None
    except Exception as exc:
        logger.warning(
            "float LP solve raised; answer undecided",
            extra={
                "event": "floatlp.error",
                "error": repr(exc),
                "rows": len(lower),
                "columns": n,
            },
        )
        return None, None
    logger.warning(
        "float LP undecided: %s",
        highs.modelStatusToString(status),
        extra={
            "event": "floatlp.undecided",
            "status": int(status),
            "rows": len(lower),
            "columns": n,
        },
    )
    return None, None


def float_feasible(matrix: RowMatrix) -> Optional[bool]:
    """Feasibility over non-negative reals; ``None`` when undecided.

    ``False`` only with an exactly checked integer Farkas certificate.
    It also leaves the float vertex of a feasible answer in the
    matrix's ``vertex`` and the certificate of an infeasible one in its
    ``certificate`` (each ``None`` otherwise).
    """
    feasible, evidence = float_solve(matrix)
    matrix.vertex = evidence if feasible else None
    matrix.certificate = evidence if feasible is False else None
    return feasible


def rounded_integer_model(matrix: RowMatrix) -> Optional[dict]:
    """Try to turn a leaf's float vertex into an exact integer model.

    Counter-system polytopes usually have integral vertices; rounding
    the HiGHS solution and *exactly* re-checking it against the rows
    resolves most SAT leaves without touching the (slow) exact branch &
    bound.  The vertex :func:`float_feasible` left on ``matrix`` is
    reused; HiGHS runs here only when there is none (an exact shortcut
    or the exact simplex decided the leaf).  Returns a verified model or
    ``None``.
    """
    assignment = matrix.vertex
    if assignment is None:
        feasible, assignment = float_solve(matrix)
        if not feasible:
            return None
    for rounder in (round, lambda v: int(v) + (v - int(v) > 1e-9)):
        candidate = {
            name: max(0, int(rounder(value))) for name, value in assignment.items()
        }
        if satisfies(matrix.rows, candidate):
            return candidate
    return None
