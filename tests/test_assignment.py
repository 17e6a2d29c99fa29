"""The in-package assignment solver returns what scipy's does, array for array."""
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.optimize import linear_sum_assignment as scipy_lsa

from dualpose.assignment import linear_sum_assignment

REPO = pathlib.Path(__file__).resolve().parents[1]


def assert_same_as_scipy(cost):
    try:
        expected = scipy_lsa(cost)
    except ValueError:
        with pytest.raises(ValueError):
            linear_sum_assignment(cost)
        return
    rows, cols = linear_sum_assignment(cost)
    for got, want in ((rows, expected[0]), (cols, expected[1])):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def _matrix(rng, kind, shape):
    if kind == "gaussian":
        return rng.normal(size=shape)
    if kind == "ties":  # 0/1/2 integers: many equal totals
        return rng.integers(0, 3, shape).astype(np.float64)
    if kind == "sparse":  # mostly-zero rows
        m = np.zeros(shape)
        mask = rng.random(shape) < 0.2
        m[mask] = rng.normal(size=int(mask.sum()))
        return m
    if kind == "decimal":  # exact ties in decimal, rounding-order ties in binary
        return rng.integers(0, 10, shape) * 0.1
    if kind == "underflow":  # exp-underflowed zeros next to tiny values
        return np.exp(-rng.uniform(0.0, 800.0, shape))
    m = rng.normal(size=shape)  # forbidden pairs, some matrices infeasible
    m[rng.random(shape) < 0.3] = np.inf
    return m


KINDS = ("gaussian", "ties", "decimal", "sparse", "underflow", "inf")


@pytest.mark.parametrize("kind", KINDS)
def test_matches_scipy_on_fixed_seeds(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    for _ in range(1000):
        assert_same_as_scipy(_matrix(rng, kind, tuple(rng.integers(0, 14, 2))))


_entries = st.one_of(
    st.floats(-1e3, 1e3),
    st.integers(0, 2).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, np.inf]),
)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=9),
              elements=_entries))
def test_matches_scipy_on_generated_matrices(cost):
    assert_same_as_scipy(cost)
    assert_same_as_scipy(cost.T)


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0)])
def test_empty_input_gives_empty_intp_arrays(shape):
    rows, cols = linear_sum_assignment(np.zeros(shape))
    assert rows.shape == cols.shape == (0,)
    assert rows.dtype == cols.dtype == np.intp
    assert_same_as_scipy(np.zeros(shape))


@pytest.mark.parametrize("cost", [
    [[0.0, np.nan], [1.0, 2.0]],
    [[0.0, -np.inf], [1.0, 2.0]],
    [[np.inf, np.inf], [1.0, 2.0]],            # row 0 has no allowed column
    [[0.0, np.inf], [1.0, np.inf], [2.0, np.inf]],  # tall: one column for three rows
    [1.0, 2.0],
    [[[1.0]]],
    3.0,
], ids=["nan", "neg-inf", "infeasible", "infeasible-tall", "1-d", "3-d", "0-d"])
def test_invalid_input_raises_value_error_as_in_scipy(cost):
    with pytest.raises(ValueError):
        scipy_lsa(cost)
    with pytest.raises(ValueError):
        linear_sum_assignment(cost)


def _scipy_modules_after(code: str, cwd: pathlib.Path | None = None) -> list[str]:
    """Names of the scipy modules loaded after running ``code`` in a fresh
    interpreter that imports dualpose from this checkout; they are printed
    on the last line, after anything ``code`` prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    code += ("\nimport sys\n"
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def _scipy_modules_after_package_import() -> list[str]:
    return _scipy_modules_after("import dualpose, dualpose.cli")


def test_package_import_leaves_scipy_optimize_out():
    assert "scipy.optimize" not in _scipy_modules_after_package_import()


def test_package_import_leaves_scipy_sparse_out():
    # scipy.sparse costs about 0.25 s and 13 MB in any process that loads it
    assert "scipy.sparse" not in _scipy_modules_after_package_import()


def test_run_pass_loads_no_scipy(tmp_path):
    # synth and a whole run pass, refinement included, load no scipy module
    (tmp_path / "config.json").write_text(
        '{"scene": {"num_persons": 1, "num_frames": 12, "motions": [{"kind": "constant"}]},'
        ' "tto": {"iters_per_stage": 5}}')
    code = (
        "from dualpose.cli import main\n"
        "assert main(['synth', '--config', 'config.json', '--out', 's']) == 0\n"
        "assert main(['run', 's/td.jsonl', 's/bu.jsonl', '--obs', 's/obs.jsonl',\n"
        "             '--gt', 's/gt.jsonl', '--config', 'config.json', '--out', 'r',\n"
        "             '--trace', 'r/trace.csv']) == 0\n"
    )
    modules = _scipy_modules_after(code, cwd=tmp_path)
    # the pass refined the track: 2 stages of 5 iterations
    trace = (tmp_path / "r" / "trace.csv").read_text().splitlines()
    assert len(trace) == 1 + 2 * 5
    assert modules == []
