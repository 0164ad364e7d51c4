import collections
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FINGERPRINT = os.path.join(ROOT, "tools", "fingerprint.py")
PERFBENCH = os.path.join(ROOT, "perfbench", "run.py")
PROGRAM = os.path.join(ROOT, "tools", "program.py")
PHASES = os.path.join(ROOT, "tools", "phases.py")
LINE = re.compile(r"decay seed=1 sha256=[0-9a-f]{64} nodes/epoch=\d+(\.\d+)? "
                  r"valid_loss=\S+ epochs_to_tol=\d+")
SHAPES = re.compile(r"  shapes: (\((\d+(, \d+)*)?,?\) \u00d7\d+(, |$))+")
STEP = re.compile(r" +\d+ = [a-z_]+\((\d+(, \d+)*)?\)( into \d+)? "
                  r"\((\d+(, \d+)*)?,?\) float64")


def shape_counts(block):
    """The ``shapes:`` line of a printed program as {shape: count}."""
    (line,) = [line for line in block if line.startswith("  shapes: ")]
    return collections.Counter({
        shape: int(count)
        for shape, count in re.findall(r"(\([\d, ]*\)) \u00d7(\d+)", line)})


def fingerprint(*args):
    return subprocess.run([sys.executable, FINGERPRINT, *args],
                          capture_output=True, text=True, timeout=300)


class TestFingerprint:
    def test_two_runs_print_the_same_line(self):
        runs = [fingerprint("--workload", "decay", "--seeds", "1")
                for _ in range(2)]
        for run in runs:
            assert run.returncode == 0, run.stderr
            lines = run.stdout.splitlines()
            assert len(lines) == 1, run.stdout
            assert LINE.fullmatch(lines[0]), lines[0]
            valid_loss = lines[0].split("valid_loss=")[1].split()[0]
            assert float(valid_loss) > 0
        assert runs[0].stdout == runs[1].stdout

    def test_bad_seeds_exit_2(self):
        for seeds in ("abc", "5-3", ""):
            run = fingerprint("--workload", "decay", "--seeds", seeds)
            assert run.returncode == 2, seeds
            assert "not a seed or seed range" in run.stderr


class TestProgram:
    def test_decay_prints_both_programs_step_by_step(self):
        run = subprocess.run([sys.executable, PROGRAM, "--workload", "decay"],
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert lines[0] == "decay seed=1 epoch 1"
        heads = [i for i, line in enumerate(lines)
                 if line.endswith("recorded steps")]
        assert [lines[i].split()[0] for i in heads] == ["training",
                                                        "validation"]
        for start, end in zip(heads, heads[1:] + [len(lines)]):
            block = lines[start:end]
            left = [int(line.split("-> ")[1]) for line in block if "->" in line]
            assert [line.split(":")[0].strip() for line in block[1:6]] == [
                "fold", "alias", "share", "outer", "into"]
            # decay's tangent seed times the first weight is a repeated row
            assert block[4].endswith(" (1 as repeated rows)")
            assert len([line for line in block if " = repeat(" in line]) == 1
            recorded = int(block[0].split()[2])
            assert recorded >= left[0] and left == sorted(left, reverse=True)
            steps = [line for line in block if " = " in line]
            assert len(steps) == left[-1] > 0
            assert block[6].startswith(f"  {left[-1]} steps, ")
            assert SHAPES.fullmatch(block[7]), block[7]
            assert shape_counts(block) == collections.Counter(
                re.search(r" (\([\d, ]*\)) float64$", line).group(1)
                for line in block if " = " in line)
            for line in steps:
                assert STEP.fullmatch(line), line
            # each slot is written once, and before any step reads it; an
            # input's or a kept array's slot is written by no step
            written = [int(line.split(" = ")[0]) for line in steps]
            assert len(set(written)) == len(written)
            read = [[int(a) for a in filter(None, line.split("(")[1]
                                            .split(")")[0].split(", "))]
                    for line in steps]
            for k, line in enumerate(steps):
                for a in read[k]:
                    assert a in written[:k] or a not in written, line
                # a step writes only into an argument a step wrote, and no
                # later step reads that slot
                if " into " in line:
                    into = int(line.split(" into ")[1].split()[0])
                    assert into in written[:k] and into in read[k], line
                    assert not any(into in r for r in read[k + 1:]), line

    def test_poisson_gaussian_builds_its_expansion_in_blocks(self):
        run = subprocess.run([sys.executable, PROGRAM, "--workload",
                              "poisson-gaussian"],
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        training, validation = [
            part.splitlines() for part in
            run.stdout.split("validation program")]
        # sum_j c_j Y_j, its tangents and its adjoints as (512, 9) blocks:
        # at most half the (512, 1) steps of the column-by-column build
        # (457 and 203)
        assert shape_counts(training)["(512, 1)"] <= 228
        assert shape_counts(validation)["(512, 1)"] <= 101
        for block in (training, validation):
            assert sum(shape_counts(block).values()) == len(
                [line for line in block if " = " in line])


class TestPhases:
    def test_decay_prints_every_phase_within_the_epoch(self):
        run = subprocess.run([sys.executable, PHASES, "--workload", "decay"],
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        head, *rows = run.stdout.splitlines()
        assert re.fullmatch(r"decay seed=1: median ms per epoch over \d+ "
                            r"epochs after \d+ warm-up", head), head
        ms = {}
        for row in rows:
            name, value = re.fullmatch(r"  ([a-z ]+?) +(-?\d+\.\d{4})",
                                       row).groups()
            ms[name] = float(value)
        phases = ["train sampling", "stream keying", "training replay",
                  "optimizer step", "validation sampling",
                  "validation replay", "other"]
        assert list(ms) == phases + ["epoch"]
        assert all(ms[p] >= 0 for p in phases), ms
        assert all(ms[p] > 0 for p in phases[:-1]), ms
        # each value is printed rounded to 0.5e-4
        assert sum(ms[p] for p in phases) <= ms["epoch"] + 4e-4, ms


class TestPerfbench:
    def test_traced_decay_run_is_correct(self):
        # the tracer patches autodiff, network and solver functions by name,
        # so renaming one of them fails this run
        run = subprocess.run(
            [sys.executable, PERFBENCH, "--workload", "decay", "--seed", "1",
             "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=300, cwd=ROOT)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
