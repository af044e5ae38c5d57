"""Tests of the benchmark itself: workloads on tiny seeded inputs, the
checker on corrupted results, the span schema, and the compare mode.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def make(name: str, seed: int = 7):
    workload = workloads.WORKLOADS[name](ROOT, seed)
    workload.setup(workloads.load_library())
    return workload


def smallest(workload, k: int = 3):
    return sorted(workload.blocks[0], key=lambda op: op["size"])[:k]


@pytest.fixture(scope="module")
def chain():
    return make("chain-d3")


@pytest.fixture(scope="module")
def enum():
    return make("enumerate")


@pytest.fixture(scope="module")
def cli():
    workload = make("cli-mix")
    yield workload
    workload.close()


@pytest.fixture(scope="module")
def symbolic():
    return make("symbolic")


def test_same_seed_same_inputs():
    def inputs(workload):
        return [(op["r"], op["knot"].tb, op["knot"].rot) for op in workload.blocks[0]]

    a, b, c = make("enumerate", 3), make("enumerate", 3), make("enumerate", 4)
    assert inputs(a) == inputs(b) != inputs(c)


def test_chain_d3_ops_pass_and_corruption_fails(chain):
    for op in smallest(chain):
        data, d3 = chain.run(op)
        assert chain.check(op, (data, d3))
        bad = dataclasses.replace(data, determinant=data.determinant + 1)
        assert not chain.check(op, (bad, d3))


def test_chain_d3_stabilization_check_catches_wrong_d3(chain):
    op = dict(smallest(chain, 1)[0], stab_check=True)
    op["presentation"] = chain.lib.expansion.all_negative_presentation(op["knot"], op["size"])
    op["r"] = Fraction(op["size"])
    data, d3 = chain.run(op)
    assert chain.check(op, (data, d3))
    assert not chain.check(op, (data, d3 + 1))


def test_enumerate_ops_pass_and_corruption_fails(enum):
    for op in smallest(enum):
        presentations, dets = enum.run(op)
        assert enum.check(op, (presentations, dets))
        assert not enum.check(op, (presentations[1:], dets[1:]))
        assert not enum.check(op, (presentations[::-1], dets))
        assert not enum.check(op, (presentations, [d + 1 for d in dets]))


def test_cli_mix_block_passes_in_process(cli):
    for op in cli.blocks[0]:
        assert cli.check(op, cli.run_in_process(op)), op["argv"]


def test_cli_mix_subprocess_and_corruption(cli):
    op = next(op for op in cli.blocks[0] if op["argv"][:2] == ["d3", "--file"])
    code, stdout = cli.run(op)
    assert cli.check(op, (code, stdout))
    assert not cli.check(op, (code, stdout + "x"))
    assert not cli.check(op, (1, stdout))
    planted = next(op for op in cli.blocks[0] if op["expect"][0] == "exit")
    assert cli.check(planted, cli.run(planted))
    assert not cli.check(planted, (0, ""))


def test_symbolic_ops_pass_and_corruption_fails(symbolic):
    for op in symbolic.blocks[0]:
        result = symbolic.run(op)
        assert symbolic.check(op, result)
        if op["kind"] == "book":
            before, rewritten, after, equal, restored = result
            assert not symbolic.check(op, (before, rewritten, after, False, restored))
            assert not symbolic.check(op, (before, rewritten, after, equal, restored[1:]))
        else:
            rows, contradictions = result
            assert not symbolic.check(op, (rows[:-1], contradictions))
            assert not symbolic.check(op, (rows, contradictions + 1))


def test_measure_counts_failures():
    class Corrupt:
        name = "corrupt"
        block_s = 1.0
        blocks = [[{"x": 1}, {"x": 2}, {"x": 3}]]

        def run(self, op):
            if op["x"] == 3:
                raise RuntimeError("unexpected")
            return op["x"] + 1

        def check(self, op, result):
            return result == op["x"]  # every result is off by one

    res = run.measure(Corrupt(), 1.0)
    assert len(res["scaled"]) == len(res["raw"]) == 3 * run.PASSES
    # The oracle fails all three on the first pass; later passes count the
    # exception only.
    assert res["attempted"] == 3 * run.PASSES and res["failed"] == 3 + run.PASSES - 1


def test_tail_is_mean_of_slowest_tenth():
    assert run.tail(list(range(1, 101))) == 95.5
    assert run.tail([3, 1, 2]) == 3


def test_scales_follow_the_reference():
    # The machine at half speed for the last three samples: reference runs
    # take twice as long, and the samples in their window scale down.
    refs = [(run.REFERENCE_S, 1)] * 5 + [(2 * run.REFERENCE_S * 3, 3)] * 3
    got = run.scales(refs)
    assert got[0] == 1.0 and got[-1] == 0.5
    assert all(0.5 <= k <= 1.0 for k in got)
    assert got == sorted(got, reverse=True)


def test_span_schema_and_self_times(symbolic):
    tracer = spans.Tracer()
    undo = spans.instrument(symbolic.lib, tracer)
    try:
        for i, op in enumerate(symbolic.blocks[0]):
            tracer.begin_op(i)
            try:
                symbolic.run(op)
            finally:
                tracer.end_op()
        # Calls outside an op record nothing.
        symbolic.lib.linalg.mat_mul_int(((1,),), ((1,),))
    finally:
        spans.undo(undo)
    assert symbolic.lib.openbook.homology_action.__module__ == "contactsurgery.openbook"
    assert not hasattr(symbolic.lib.ledger.LedgerState.window, "__wrapped__")

    recorded = tracer.spans
    assert {s.name for s in recorded} >= {
        "op", "openbook.homology_action", "linalg.mat_mul_int", "ledger.assert_fact",
        "ledger.window", "openbook.lantern_rewrite"}
    own = spans.self_times(recorded)
    for s, t in zip(recorded, own):
        assert isinstance(s.name, str) and s.start <= s.end
        assert 0 <= t <= s.end - s.start
        if s.parent is None:
            assert s.name == "op"
        else:
            parent = recorded[s.parent]
            assert s.parent < s.id and parent.op == s.op
            assert parent.start <= s.start and s.end <= parent.end
    for op_span in (s for s in recorded if s.name == "op"):
        inside = [t for s, t in zip(recorded, own) if s.op == op_span.op]
        assert sum(inside) == op_span.end - op_span.start

    figures = spans.summarize(recorded)
    assert figures["ledger.contradictions"][0] == workloads.Symbolic.planted_sessions
    # The word, then the rewritten word, one letter shorter.
    assert figures["openbook.letters_applied"][0] == sum(
        2 * op["size"] - 1 for op in symbolic.blocks[0] if op["kind"] == "book")
    shares = sum(figures[f"{layer}.self_frac"][0] for layer in spans.LAYERS)
    assert 0.9 < shares <= 1.0


def test_oracles_independent_values():
    assert oracles.negative_cf(Fraction(1013, 13)) == [78, 13]  # 1 + 1000/13
    assert oracles.presentation_count(Fraction(-1000, 13)) == 924
    assert oracles.order_h1(-1, Fraction(2)) == 1
    facts = [(0, "Zero", "a"), (-4, "Zero", "b"), (3, "NonZero", "c"), (6, "NonZero", "d")]
    assert oracles.ledger_window(facts, -5, 7) == (
        [(k, "Zero", "b") for k in (-5, -4)] + [(k, "Zero", "a") for k in range(-3, 1)]
        + [(k, "Unknown", None) for k in (1, 2)]
        + [(k, "NonZero", "c") for k in (3, 4, 5)] + [(k, "NonZero", "d") for k in (6, 7)])
    assert oracles.cyclically_equal([("a", "+"), ("b", "-")], [("b", "-"), ("a", "+")])
    assert not oracles.cyclically_equal([("a", "+")], [("a", "-")])


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_matches_benchmark_json(trace):
    proc = _bench("--workload", "symbolic", "--seed", "5", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: m["unit"] for k, m in result["metrics"].items()}


def test_exits_nonzero_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text("utf-8"), "utf-8")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain-d3", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_compare_reports_ratio_and_bound(tmp_path, capsys):
    def result(ops_per_s, failed=0):
        metrics = {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                   "op_p50_ms": {"value": 10.0, "unit": "ms"}}
        return {"workloads": {"enumerate": {"attempted": 10, "failed": failed,
                                            "metrics": metrics}}}

    base, same, slow = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    base.write_text(json.dumps(result(100.0)))
    same.write_text(json.dumps(result(99.0)))
    slow.write_text(json.dumps(result(50.0, failed=1)))
    assert run.compare(str(base), str(same)) == 0
    out = capsys.readouterr().out
    assert "ops_per_s" in out and "0.990" in out and "REGRESSION" not in out
    assert run.compare(str(base), str(slow)) == 1
    out = capsys.readouterr().out
    assert out.count("REGRESSION") == 2
