"""The benchmark tracer's contract with the library.

``perfbench/tracer.py`` wraps the functions its ``LAYERS`` name and reads a
fact off the records some of them return (``INFO``).  A layer that no
longer resolves, or a record without the field read, only makes per-layer
metrics go missing from a benchmark run; these checks fail instead.  The
tracer's source is executed, not imported, so nothing is written beside
it.
"""

import types
from pathlib import Path

import pytest

from dqcalib.constraints import ConstraintMode
from dqcalib.io import load_pairs_jsonl, save_pairs_jsonl
from dqcalib.local_solver import solve_local
from dqcalib.online import OnlineCalibrator, OnlineConfig
from dqcalib.verify import certify

from conftest import accumulate_pairs, make_dataset

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_layer_resolves(tracer):
    assert [name for name, (module, path) in tracer.LAYERS.items()
            if tracer._lookup(module, path) is None] == []


@pytest.mark.parametrize("t_no_fail, provenance",
                         [(float("inf"), "global"), (0.5, "local")])
def test_records_carry_what_the_tracer_reads(tracer, tmp_path, t_no_fail,
                                             provenance):
    pairs, _ = make_dataset(seed=5, n_pairs=20, noise=0.01)
    save_pairs_jsonl(pairs, tmp_path / "pairs.jsonl")
    Q = accumulate_pairs(pairs).normalized_q
    local = solve_local(Q, ConstraintMode.FULL_3D)
    calib = OnlineCalibrator(OnlineConfig(t_no_fail=t_no_fail))
    records = {
        "io.load_pairs_jsonl": load_pairs_jsonl(tmp_path / "pairs.jsonl"),
        "local_solver.solve_local": local,
        "verify.certify": certify(Q, local.q_hat, ConstraintMode.FULL_3D),
        "online.update": [calib.update(p) for p in pairs][-1],
    }
    assert set(records) == set(tracer.INFO)
    facts = {name: tracer.INFO[name](record)
             for name, record in records.items()}
    assert facts == {"io.load_pairs_jsonl": 20,
                     "local_solver.solve_local": (local.iterations, True),
                     "verify.certify": True,
                     "online.update": provenance}
