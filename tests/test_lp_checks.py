"""How ``solve_lp`` treats what HiGHS returns, and how the binding is loaded."""
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sepproj import _kernels, lp
from sepproj.errors import LPError

SRC = Path(__file__).resolve().parents[1] / "src"


def _fake_kernel(monkeypatch, status, x=None, infeasibility=0.0):
    def kernel(c, A, row_lo, row_hi, col_lo, col_hi):
        return status, None if x is None else np.asarray(x, dtype=float), infeasibility

    monkeypatch.setattr(_kernels, "simplex_standard", kernel)


def test_optimum_violating_a_row_is_rejected(monkeypatch):
    # x + y <= 1 with x = y = 0.6: a row residual of 0.2
    _fake_kernel(monkeypatch, "kOptimal", [0.6, 0.6])
    with pytest.raises(LPError, match="violates a constraint"):
        lp.solve_lp([-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])


def test_optimum_violating_a_bound_is_rejected(monkeypatch):
    _fake_kernel(monkeypatch, "kOptimal", [-1e-6])
    with pytest.raises(LPError, match="violates a constraint"):
        lp.solve_lp([1.0], bounds=[(0.0, None)])


def test_optimum_with_nan_is_rejected(monkeypatch):
    _fake_kernel(monkeypatch, "kOptimal", [np.nan, 0.0])
    with pytest.raises(LPError, match="violates a constraint"):
        lp.solve_lp([-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])


def test_residual_allowance_scales_with_the_data(monkeypatch):
    # a row residual of 100 against a right-hand side of 1e12 is within
    # feas_tol = 1e-9 times the data scale max|A| max|x| = 1e12
    _fake_kernel(monkeypatch, "kOptimal", [1e6 + 1e-4])
    res = lp.solve_lp([1.0], A_ub=[[1e6]], b_ub=[1e12], bounds=[(None, None)])
    assert res.ok


@pytest.mark.parametrize("status, code", [("kInfeasible", lp.INFEASIBLE),
                                          ("kUnbounded", lp.UNBOUNDED),
                                          ("kUnboundedOrInfeasible", lp.UNBOUNDED)])
def test_verdict_statuses(monkeypatch, status, code):
    _fake_kernel(monkeypatch, status, infeasibility=2.5)
    res = lp.solve_lp([1.0])
    assert res.status == code and res.x is None and res.infeasibility == 2.5


@pytest.mark.parametrize("status", ["kUnknown", "kIterationLimit",
                                    "kModelError"])
def test_other_statuses_raise(monkeypatch, status):
    _fake_kernel(monkeypatch, status)
    with pytest.raises(LPError, match=status):
        lp.solve_lp([1.0])


def test_binding_loads_at_first_lp_without_scipy_optimize():
    # importing scipy.optimize takes about half a second: sepproj loads only
    # the HiGHS extension, at its first LP, and a later scipy.optimize import
    # reuses it.  scipy.spatial (qhull) takes as long, and loads only at the
    # first interval score over two or more directions; building a
    # feasibility oracle does not load it (its first call does)
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import sepproj\n"
        "from sepproj.overlap import OverlapSpec, f_value\n"
        "ps = sepproj.LabeledPointSet(np.array([[0.0, 0.0], [0.0, 3.0], [1.0, 1.0],\n"
        "                                       [2.0, 2.0]]), [[-1, -1, 1, 1]])\n"
        "spec = OverlapSpec(kind='interval')\n"
        "assert f_value(ps, np.array([1.0, 0.0]), spec)[0] == 1.0\n"
        "assert 'scipy.spatial' not in sys.modules\n"
        "core = 'scipy.optimize._highspy._core'\n"
        "from sepproj.lp import solve_lp\n"
        "assert core not in sys.modules\n"
        "assert solve_lp([1.0], bounds=[(2.0, None)]).x[0] == 2.0\n"
        "loaded = sys.modules[core]\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "from sepproj.constructions import gen_cube_two_maxima\n"
        "from sepproj.overlap import separability_feasibility\n"
        "feasible = separability_feasibility(gen_cube_two_maxima(0.2), (1,), True)\n"
        "assert 'scipy.spatial' not in sys.modules\n"
        "f_value(sepproj.LabeledPointSet(np.eye(3), [[-1, 1, 1]]),\n"
        "        np.array([0.0, 0.0, 1.0]), spec)\n"
        "assert 'scipy.spatial' in sys.modules\n"
        "from scipy.optimize import linprog\n"
        "assert sys.modules[core] is loaded\n"
        "assert linprog([1.0], bounds=[(2.0, None)], method='highs').x[0] == 2.0\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, cwd=SRC)
