"""Smoke test of the benchmark's tracing contract, run against bench/ as it is.

The benchmark wraps the package's public functions with ``bench/tracing.py``
and rejects a traced run unless it sees exactly one ``run_round_*`` call and
one ``iter_rounds`` yield per round (``_check_trace_coverage`` in
``bench/workload.py``).  A change to the package that breaks either fails
here first.  Nothing under bench/ is modified.
"""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qdialogue import cli
from qdialogue.adversary import STRATEGIES
from qdialogue.protocol import PROTOCOLS

ROUNDS = 200


def load_tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("with_output", [False, True])
def test_tracer_sees_every_round_once(strategy, protocol, with_output, tmp_path):
    tracer = load_tracing().Tracer()
    argv = ["run", "--protocol", protocol, "--attack", strategy,
            "--rounds", str(ROUNDS), "--format", "records"]
    if with_output:
        argv += ["--output", str(tmp_path / "rounds.jsonl")]
    with tracer.installed(), redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    stats = tracer.stats
    round_calls = stats["protocol.run_round_original"][0] + stats["protocol.run_round_modified"][0]
    assert round_calls == ROUNDS
    # one next() per round plus the one that ends the single pass
    assert stats["harness.iter_rounds"][0] == ROUNDS + 1
    assert stats["cli.main"][0] == 1
    if with_output:
        assert stats["harness.transcript_to_line"][0] == ROUNDS

