"""Acceptance suite: one test per shipped claim, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. The parser fuzz (criterion 8, about 10 s, a third of it
generating its 10^6 inputs), the thread-determinism check (criterion 6,
about 7 s) and the sampler statistics (criterion 7, about 5 s) dominate the
runtime; the whole module takes about 40 seconds on a 2-vCPU x86-64 host.
"""

import hashlib
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from crngame import (
    Reaction,
    SimConfig,
    StopReason,
    absorption_probabilities,
    enumerate_states,
    make_crn,
    parse,
    serialize,
)
from crngame.batch import simulate_batch
from crngame.cli import main as cli_main
from crngame.config import load_config, resolve_input_path
from crngame.core import CompiledCrn
from crngame.crnfile import ParseError, load as load_crn
from crngame.data import path as data_path
from crngame.experiment import CSV_COLUMNS, run_sweep
from crngame.game import robustness_report
from crngame.oracle import SOLVE_RESIDUAL_BOUND
from crngame.rng import Xoshiro256, XoshiroBatch, child_seed
from crngame.ssa import _core_loop, simulate
from crngame.svg import sweep_svg

WORKERS = 2

# sha256 over every criterion-8 fuzz input's outcome, each ended by a NUL:
# "ok\n" + serialize(doc) when it parses, repr((line, column, message,
# token)) when it does not.
PARSER_FUZZ_DIGEST = (
    "f72fc7103e6349860effe1593f6adbcac9f394678696054be7bbfb5e23f5f051")

# sha256 of the shipped outputs, which no change to the engine may move
# without saying so: the CSV of pkg:takeover_point.ini, and the CSV and SVG
# of pkg:default_sweep.ini (the same at any worker count)
TAKEOVER_POINT_CSV = "4f90e874422f385ec049386371de2f2182f77b4942be6949488ed437e4b3a7c1"
DEFAULT_SWEEP_CSV = "9917d449b46fc0b0e5cb30d86883ad2420ce92a13aa56906e97f6821ba9d0d45"
DEFAULT_SWEEP_SVG = "7e2613c625e03012a52f3e2c9e75d1240fab05fad52f624082a185fe0530b10c"


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report(label):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            print(f"\ncriterion {label}: {'PASS' if exc_type is None else 'FAIL'}")
            return False

    return _Reporter()


def test_criterion_1_propensity_exactness():
    with _report("1 (propensity exactness)"):
        # 3Y + Z at k=1, V=1, y=5, z=2: the worked falling-factorial value
        trimolecular = Reaction({0: 3, 1: 1}, {1: 2}, 1.0)
        assert CompiledCrn((trimolecular,)).propensity(0, [5, 2]) == 120.0
        # first catalyzed-consensus reaction (2X + Y + A -> 3X + A) at
        # (x, y, a) = (3, 2, 10): a*x*(x-1)*y with no stoichiometry factorial
        catalyzed = Reaction({0: 2, 1: 1, 2: 1}, {0: 3, 2: 1}, 1.0)
        assert CompiledCrn((catalyzed,)).propensity(0, [3, 2, 10]) == 10 * 3 * 2 * 2


def test_criterion_2_oracle_ground_truth(majority_crn):
    with _report("2 (oracle ground truth + simulation agreement)"):
        table = majority_crn.species
        cases = [({"X": 3, "Y": 2}, 0.75), ({"X": 2, "Y": 2}, 0.5),
                 ({"X": 4, "Y": 1}, 1.0)]
        for counts, expected in cases:
            initial = table.state_from(counts)
            space = enumerate_states(majority_crn, initial)
            exact = absorption_probabilities(
                space, space.states[:, 0] > space.states[:, 1])[0]
            assert abs(exact - expected) <= SOLVE_RESIDUAL_BOUND

            trials = 10000
            seed = 9000 + counts["X"]
            rng = XoshiroBatch([child_seed(seed, j) for j in range(trials)])
            finals = simulate_batch(majority_crn, np.tile(initial, (trials, 1)),
                                    SimConfig(seed=seed), rng).final_states
            wins = int((finals[:, 0] > finals[:, 1]).sum())
            sigma = math.sqrt(expected * (1 - expected) / trials)
            assert abs(wins / trials - expected) <= max(3 * sigma, 1e-12)


def test_criterion_3_full_population_point():
    with _report("3 (full-population point reproduction)"):
        config = load_config(resolve_input_path("pkg:takeover_point.ini"))
        assert config.total == 10000 and config.accepted_diffs() == [240]
        assert config.trials == 1000
        output = run_sweep(replace(config, threads=WORKERS))
        [row] = output.results
        assert row.error is None
        assert 0.97 <= row.baseline.mean <= 1.00
        assert 0.69 <= row.with_opponents.mean <= 0.83
        assert _sha256(output.to_csv()) == TAKEOVER_POINT_CSV


def test_criterion_4_reduced_scale_gate():
    with _report("4 (reduced-scale robustness gate)"):
        config = load_config(resolve_input_path("pkg:default_sweep.ini"))
        assert config.total == 1000 and config.trials == 500
        assert config.accepted_diffs() == list(range(0, 101, 10))
        output = run_sweep(replace(config, threads=WORKERS))
        report = robustness_report(output.results, alpha=0.6)

        # (a) interference never confidently raises the success frequency
        for row in output.results:
            assert row.with_opponents.lower <= row.baseline.upper

        # (b) isolated success nondecreasing in the initial difference, up
        # to interval overlap. The tie condition d=0 measures a different
        # event (either species may take over, so success is ~certain) and
        # is checked against its own meaning.
        isolated = {int(row.label): row.baseline for row in output.results}
        assert isolated[0].mean >= 0.98
        positive = [isolated[d] for d in sorted(isolated) if d > 0]
        for previous, current in zip(positive, positive[1:]):
            assert current.upper >= previous.lower

        # (c) the shipped configuration supports a 0.6 robustness claim
        assert report.alpha == 0.6
        assert report.verdict == "PASS"

        # (d) the shipped bytes
        assert _sha256(output.to_csv()) == DEFAULT_SWEEP_CSV
        assert _sha256(sweep_svg(output.results)) == DEFAULT_SWEEP_SVG


def _check_conservation(counts, pair_total=60, catalyst_total=16):
    """Asserts the two linear invariants on one state."""
    assert counts[0] + counts[1] == pair_total
    assert counts[2] + counts[3] == catalyst_total


def test_criterion_5_conservation_suite():
    with _report("5 (conservation and frozen consensus pair)"):
        composed = make_crn([
            ({"X": 2, "Y": 1, "A": 1}, {"X": 3, "A": 1}, 1.0),
            ({"X": 1, "Y": 2, "B": 1}, {"Y": 3, "B": 1}, 1.0),
            ({"A": 1}, {"B": 1}, 5000.0),
            ({"B": 1}, {"A": 1}, 5000.0),
        ])
        table = composed.species
        consensus = CompiledCrn(composed.reactions[:2])
        initial = table.state_from({"X": 36, "Y": 24, "A": 8, "B": 8})
        _check_conservation(initial)

        for seed in range(100):
            # the invariants hold at every event
            res = simulate(composed, initial, SimConfig(seed=seed),
                           stop_when_zero=(0, 1),
                           on_event=lambda t, soj, j, c: _check_conservation(c))
            # every run reaches a takeover, and afterwards neither
            # consensus reaction can ever fire again
            assert res.stop_reason in (StopReason.EARLY_STOP, StopReason.TERMINAL)
            x, y = int(res.final_state[0]), int(res.final_state[1])
            assert x == 0 or y == 0
            assert x + y == 60
            assert res.final_state[2] + res.final_state[3] == 16
            for j in range(consensus.size):
                assert consensus.propensity(j, res.final_state.tolist()) == 0.0


def test_criterion_6_thread_determinism(tmp_path, capsys):
    with _report("6 (byte-identical sweep across worker counts)"):
        paths = []
        for threads in (1, 8):
            out = tmp_path / f"threads{threads}.csv"
            code = cli_main(["sweep", "pkg:default_sweep.ini",
                             "--out", str(out), "--threads", str(threads),
                             "--svg", str(tmp_path / f"threads{threads}.svg")])
            assert code == 0
            paths.append(out)
        capsys.readouterr()
        a, b = (p.read_bytes() for p in paths)
        assert a == b
        svg_a = (tmp_path / "threads1.svg").read_bytes()
        svg_b = (tmp_path / "threads8.svg").read_bytes()
        assert svg_a == svg_b

        # the shipped sweep's outcomes, as the per-arm batch engine gave
        # them before every condition and arm shared one lane pool
        rows = [dict(zip(CSV_COLUMNS, line.split(",")))
                for line in a.decode().splitlines()
                if line and not line.startswith(("#", "d,"))]
        assert [int(row["d"]) for row in rows] == list(range(0, 101, 10))
        assert [int(row["succ_with"]) for row in rows] == SHIPPED_SUCC_WITH
        assert [int(row["succ_without"]) for row in rows] == SHIPPED_SUCC_WITHOUT
        assert [int(row["trunc_with"]) for row in rows] == [0] * 11
        assert [int(row["trunc_without"]) for row in rows] == [0] * 11


# succ_with and succ_without of pkg:default_sweep.ini, d = 0, 10, ..., 100
SHIPPED_SUCC_WITH = [500, 315, 364, 411, 452, 464, 474, 489, 497, 500, 500]
SHIPPED_SUCC_WITHOUT = [500, 297, 367, 410, 455, 471, 476, 492, 498, 500, 500]


def test_criterion_7_sampler_statistics():
    with _report("7 (sojourn and selection statistics)"):
        from scipy.stats import chi2

        # three reactions with distinct propensities at a frozen state
        fixture = make_crn([
            ({"X": 1}, {"W": 1}, 1.0),
            ({"X": 2}, {"W": 2}, 1.0),
            ({"X": 1, "Y": 1}, {"W": 2}, 2.0),
        ])
        frozen = fixture.species.state_from({"X": 5, "Y": 4})
        kin = CompiledCrn(fixture.reactions)
        props = [kin.propensity(j, frozen.tolist()) for j in range(kin.size)]
        total = sum(props)  # 5 + 20 + 40

        # each draw is the one event of a max_events=1 run from the frozen
        # state, all on one stream
        rng = Xoshiro256(777)
        draws = 100000
        fired = []
        for _ in range(draws):
            _core_loop(fixture, frozen, SimConfig(1.0, max_events=1), rng,
                       on_event=lambda t, sojourn, j, counts: fired.append((sojourn, j)))
        assert len(fired) == draws
        sojourns = np.array([sojourn for sojourn, _ in fired])
        picks = np.bincount([j for _, j in fired], minlength=len(props))

        mean = sojourns.mean()
        typical = 1.0 / total
        stderr = typical / math.sqrt(draws)
        assert abs(mean - typical) <= 4 * stderr

        expected = np.array(props) / total * draws
        statistic = ((picks - expected) ** 2 / expected).sum()
        p_value = chi2.sf(statistic, df=len(props) - 1)
        assert p_value > 0.001


def test_criterion_8_parser_gate():
    with _report("8 (parser round trip and fuzzing)"):
        for name in ("r.crn", "r_prime.crn", "nature.crn"):
            doc = load_crn(data_path(name))
            assert parse(serialize(doc)) == doc

        with pytest.raises(ParseError):
            parse("X + Y -> X + Y @ 1\n")

        rng = random.Random(0xFADE)
        charset = "XYZABxy abc012->@=+#.\n\te\\(){}-"
        seeds = ["2X + Y -> 3X @ 1", "init X = 5", "X->Y@1e9", "0 -> X @ 2",
                 "A + B -> C @ 0.5", "#c", ""]
        # rng.choice(s) is s[rng._randbelow(len(s))] and rng.randrange(n) is
        # rng._randbelow(n): the same draws from the same stream, called
        # through bound methods
        uniform, below = rng.random, rng._randbelow
        nseeds, nchars = len(seeds), len(charset)
        digest = hashlib.sha256()
        for _ in range(10**6):
            if uniform() < 0.3:
                base = seeds[below(nseeds)]
                pos = below(len(base) + 1)
                text = base[:pos] + charset[below(nchars)] + base[pos:]
            else:
                text = "".join([charset[below(nchars)] for _ in range(below(60))])
            try:
                outcome = "ok\n" + serialize(parse(text))
            except ParseError as exc:
                outcome = repr((exc.line, exc.column, exc.message, exc.token))
            digest.update(outcome.encode("utf-8") + b"\0")
        assert digest.hexdigest() == PARSER_FUZZ_DIGEST
