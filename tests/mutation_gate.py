"""Mutation gate: each row breaks a fast path on purpose, and a test must fail.

    python3 tests/mutation_gate.py              # every row
    python3 tests/mutation_gate.py lattice.py   # only the rows on files ending so

Run it from anywhere; it needs pytest and hypothesis, as the tests do.
Each row of ``ROWS`` is ``(file, exact old text, new text, pytest
target)``, the file relative to ``src/``. For each row the script copies
``src/`` to a temporary directory, replaces the one occurrence of the old
text, and runs ``pytest -x`` on the target against that copy, under the
hypothesis profile ``mutation-gate`` (``tests/conftest.py``: no shrinking
and no example database, so a row's time does not depend on earlier
runs). The row's
mutant is killed when pytest reports a failing test (exit status 1). Each
row's verdict is printed with the seconds its pytest run took. Given file
names, the script runs only the rows whose file ends with one of them, and
their targets on the unmutated copy; a name that selects no row fails.

The gate fails, with exit status 1, when:
- a row's old text is missing from its file, or found more than once, so
  that a refactor must update the table rather than skip a row in silence;
- a mutant survives, or pytest ends it any other way (no tests collected,
  a usage error, a time-out);
- a target fails on the unmutated copy, since a failing target would
  "kill" every mutant.

The name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
CIRCUITS = "relaycircuits/circuits.py"
FRONTIER = "relaycircuits/frontier.py"
ROBUSTNESS = "relaycircuits/robustness.py"
COMPOSE_TESTS = "tests/test_circuits.py::TestCompose"
TAIL_TESTS = "tests/test_circuits.py::TestIntegerTails"
GRAPH_TESTS = "tests/test_circuits.py::TestGraph"
STATE_TEST = "tests/test_circuits.py::TestEvaluate::test_states_match_the_oracle"
ORACLE_TESTS = "tests/test_circuits.py::TestOracleDenominators"
INPUT_CORNER_TESTS = "tests/test_robustness.py::TestInputs"
INTERVAL_TEST = "tests/test_robustness.py::TestInterval::test_matches_corner_search"
CANONICAL_TESTS = "tests/test_circuits.py::TestCanonicalTail"
DISTRIBUTION_TESTS = "tests/test_circuits.py::TestDistribution"
LATTICE = "relaycircuits/lattice.py"
LATTICE_COMPOSE_TESTS = "tests/test_lattice.py::TestCompose"
LATTICE_KERNEL_TEST = (
    "tests/test_lattice.py::TestSearchMatchesReference::test_the_kernel_checks_each_result")
LATTICE_OPERAND_TEST = (
    "tests/test_lattice.py::TestSearchProperty::test_an_operand_read_from_its_key_is_checked")
LATTICE_WITNESS_TEST = (
    "tests/test_lattice.py::TestSearchProperty::test_the_witness_is_checked_by_compose_lattice")
LATTICE_TEXT_TEST = "tests/test_lattice.py::TestSearch::test_chain_control_three_quarters"
RESOLVER_TESTS = "tests/test_circuits.py::TestGeneratedResolver"
SYNTHESIS = "relaycircuits/synthesis.py"
CUT_TESTS = "tests/test_synthesis.py::TestCutOracle"
UPG = "relaycircuits/upg.py"
UPG_TESTS = "tests/test_upg.py::TestTruthTables"
CODEC_TESTS = "tests/test_upg.py::TestIntegerCodec"

ROWS = (
    # series: the tails add instead of multiplying
    (CIRCUITS,
     "tuple(map(operator.mul, tp, tq))",
     "tuple(map(operator.add, tp, tq))",
     COMPOSE_TESTS),
    # series: no length check, so zip drops the longer tail's last levels
    (CIRCUITS,
     '''        raise DimensionError(f"state counts differ: {len(p)} vs {len(q)}")
    return _from_tail(p._den * q._den''',
     '''        pass
    return _from_tail(p._den * q._den''',
     COMPOSE_TESTS),
    # parallel: the second complement reads the first operand's tail
    (CIRCUITS,
     "den - (dp - a) * (dq - b)",
     "den - (dp - a) * (dq - a)",
     COMPOSE_TESTS),
    # parallel: the product of the complements is not complemented back
    (CIRCUITS,
     "tuple([den - (dp - a) * (dq - b) for",
     "tuple([(dp - a) * (dq - b) for",
     COMPOSE_TESTS),
    # parallel: no length check
    (CIRCUITS,
     '''        raise DimensionError(f"state counts differ: {len(p)} vs {len(q)}")
    dp, dq = p._den, q._den''',
     '''        pass
    dp, dq = p._den, q._den''',
     COMPOSE_TESTS),
    # parallel: the result's denominator is one operand's alone
    (CIRCUITS,
     "    den = dp * dq\n    return _from_tail(den, tuple([",
     "    den = dp * dp\n    return _from_tail(den, tuple([",
     TAIL_TESTS),
    # integer constructor: equal levels are refused as out of order
    (CIRCUITS,
     "        if t > low:\n            break",
     "        if t >= low:\n            break",
     CANONICAL_TESTS),
    # integer constructor: a last level below 0 is let through
    (CIRCUITS,
     "        if low >= 0 and den > 0:",
     "        if den > 0:",
     CANONICAL_TESTS),
    # integer constructor: a denominator of 0 is let through
    (CIRCUITS,
     "        if low >= 0 and den > 0:",
     "        if low >= 0:",
     CANONICAL_TESTS),
    # point: the tail is one level too long, the mass one state too high
    (CIRCUITS,
     "(1,) * state + (0,) * (states - 1 - state)",
     "(1,) * (state + 1) + (0,) * (states - 2 - state)",
     DISTRIBUTION_TESTS),
    # bind list: an input's complement is dropped
    (CIRCUITS,
     "values.append(el.state if isinstance(el, Det) else el)",
     "values.append(el.state if isinstance(el, Det) else Input(el.name))",
     UPG_TESTS),
    # bind list: a fixed graph label binds the slot before its last one
    (CIRCUITS,
     "((slots, c), (kinds, _LABEL)",
     "((slots, c - 1), (kinds, _LABEL)",
     GRAPH_TESTS),
    # binding: a graph label without a pswitch takes the state N-1-state
    (CIRCUITS,
     "value = resolve(value, states, assignment, {})",
     "value = states - 1 - resolve(value, states, assignment, {})",
     GRAPH_TESTS),
    # binding: a Det takes the state N-1-state
    (CIRCUITS,
     "value = index(value)",
     "value = states - 1 - index(value)",
     UPG_TESTS),
    # step rule: series folds its state operands with max
    (CIRCUITS,
     "compose_series, min, states - 1, 0",
     "compose_series, max, states - 1, 0",
     STATE_TEST),
    # step rule: parallel swaps its unit and absorbing state, so c = N-1
    # returns the distribution (and c = 0 the state 0)
    (CIRCUITS,
     "compose_parallel, max, 0, states - 1",
     "compose_parallel, max, states - 1, 0",
     STATE_TEST),
    # generated resolver: series writes a max and parallel a min
    (CIRCUITS,
     '"<" if kind is _SERIES else ">"',
     '">" if kind is _SERIES else "<"',
     RESOLVER_TESTS),
    # oracle: the weights' common denominator is left at 1
    (CIRCUITS,
     "        den *= d\n",
     "        den *= 1\n",
     ORACLE_TESTS),
    # corner search: an input leaf is read with no assignment
    (ROBUSTNESS,
     "else _input_value(el, states, assignment)",
     "else _input_value(el, states, {})",
     INPUT_CORNER_TESTS),
    # interval mode: the +eps corner is evaluated at -eps
    (ROBUSTNESS,
     "for e in (-epsilon, epsilon)]",
     "for e in (-epsilon, -epsilon)]",
     INTERVAL_TEST),
    # interval bound: dT_j^hi is paired with dT_j^lo instead of dT_(j+1)^lo
    (ROBUSTNESS,
     "max(up[j] - down[j + 1],",
     "max(up[j] - down[j],",
     INTERVAL_TEST),
    # frontier DP: a done terminal alone in its block is carried, not dropped
    (FRONTIER,
     "(s_done and labels.count(labels[0]) == 1)",
     "(False and labels.count(labels[0]) == 1)",
     GRAPH_TESTS),
    # frontier DP: the joined weight is not scaled by later edges' D
    (FRONTIER,
     "total, den, nxt = total * d, den * d, {}",
     "total, den, nxt = total, den * d, {}",
     GRAPH_TESTS),
    # frontier DP: a certain-up edge is dropped instead of contracted
    (FRONTIER,
     "        if code == 2 and find(u) != find(v):",
     "        if False and find(u) != find(v):",
     GRAPH_TESTS),
    # lattice kernel: a meet or join whose fields do not sum to full is let through
    (LATTICE,
     "    if meet % mod != full or join % mod != full:",
     "    if False:",
     LATTICE_KERNEL_TEST),
    # lattice operand: a key field that L^(budget - size) does not divide is let through
    (LATTICE,
     "            if rest:\n",
     "            if False:\n",
     LATTICE_OPERAND_TEST + "[remainder]"),
    # lattice operand: numerators that do not sum to L^size are let through
    (LATTICE,
     "        if min(nums) < 0 or sum(nums) != unit ** size:",
     "        if min(nums) < 0:",
     LATTICE_OPERAND_TEST + "[sum]"),
    # lattice witness: the fold through compose_lattice is not compared with the target
    (LATTICE,
     "    if _fold_witness(source) != target:",
     "    if False:",
     LATTICE_WITNESS_TEST),
    # lattice witness: the text writes a meet as + and a join as *
    (LATTICE,
     '"*" if op == "meet" else "+"',
     '"+" if op == "meet" else "*"',
     LATTICE_TEXT_TEST),
    # lattice compose: a join reads the meet table
    (LATTICE,
     "        table = lattice._join\n",
     "        table = lattice._meet\n",
     LATTICE_COMPOSE_TESTS),
    # synthesis cut: the left piece's levels are not lowered by the rest
    (SYNTHESIS,
     "tuple([b * t - rest for t in tail[:k]])",
     "tuple([b * t for t in tail[:k]])",
     CUT_TESTS),
    # synthesis cut: the right piece's levels are not scaled by b
    (SYNTHESIS,
     "tuple([b * t for t in tail[k:]])",
     "tuple([t for t in tail[k:]])",
     CUT_TESTS),
    # UPG builder: a selector chain's branch takes the max of selector and value
    (UPG,
     "self.states, opt_series(self.states, sel, value), guarded)",
     "self.states, opt_parallel(self.states, sel, value), guarded)",
     UPG_TESTS),
    # row codec: a prefix that is not a multiple of 1/2^n is let through
    (UPG,
     "        if rest:\n",
     "        if False:\n",
     CODEC_TESTS),
    # row codec: the decoded prefix values become the tail uncomplemented
    (UPG,
     "tuple([scale - x for x in xs])",
     "tuple([x for x in xs])",
     CODEC_TESTS),
    # row codec: the integer bit is read from the wrong digit
    (UPG,
     "(top * (x >> bits), ",
     "(top * (x >> bits - 1 & 1), ",
     CODEC_TESTS),
)


def run_pytest(src: Path, target: str) -> int:
    """pytest's exit status for ``target``, importing the library from ``src``."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-profile=mutation-gate", "-o", f"pythonpath={src}", target]
    try:
        return subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return -1


def copy_src(tmp: str, name: str) -> Path:
    return Path(shutil.copytree(ROOT / "src", Path(tmp, name),
                                ignore=shutil.ignore_patterns("__pycache__")))


def timed_pytest(src: Path, target: str) -> tuple[int, float]:
    """:func:`run_pytest`'s exit status and the seconds it took."""
    start = time.perf_counter()
    code = run_pytest(src, target)
    return code, time.perf_counter() - start


def main(names: list[str]) -> int:
    start, failures = time.perf_counter(), []
    rows = [(i, row) for i, row in enumerate(ROWS, 1)
            if not names or row[0].endswith(tuple(names))]
    if not rows:
        print(f"FAIL: no row's file ends with any of {names}")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        clean = copy_src(tmp, "clean")
        for target in dict.fromkeys(row[3] for _, row in rows):
            code, seconds = timed_pytest(clean, target)
            print(f"unmutated  {target}: pytest exit {code}  {seconds:.1f} s")
            if code != 0:
                failures.append(f"{target} fails on the unmutated source (exit {code})")
        for i, (file, old, new, target) in rows:
            mutant = copy_src(tmp, f"mutant{i}")
            path = mutant / file
            text = path.read_text(encoding="utf-8")
            found = text.count(old)
            if found != 1:
                print(f"row {i}: old text found {found} times in {file}")
                failures.append(f"row {i}: old text found {found} times in {file}")
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            code, seconds = timed_pytest(mutant, target)
            verdict = "killed" if code == 1 else f"NOT killed (pytest exit {code})"
            print(f"row {i}: {verdict}  {seconds:.1f} s  {file}: "
                  f"{old.splitlines()[-1].strip()!r}")
            if code != 1:
                failures.append(f"row {i} not killed by {target} (exit {code})")
            shutil.rmtree(mutant)
    print(f"{len(rows)} rows in {time.perf_counter() - start:.1f} s")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
