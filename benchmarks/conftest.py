"""Shared helpers for the benchmark harness.

Every bench regenerates one figure or table of the paper: it prints the
reproduced rows/series, asserts the *shape* of the paper's claim (who
wins, by roughly what factor, where crossovers fall), and times the
underlying operation with pytest-benchmark.  Reproduced tables are also
written to ``benchmarks/results/<bench>.txt`` so the artifacts survive
the run.
"""

import pathlib

import numpy as np
import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def emit(results_dir, request):
    """Print a reproduced table and persist it under the bench's name."""

    def _emit(text: str) -> None:
        name = request.node.name.replace("/", "_")
        path = results_dir / f"{request.module.__name__}.{name}.txt"
        path.write_text(text + "\n")
        print("\n" + text)

    return _emit


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xBE7C)
