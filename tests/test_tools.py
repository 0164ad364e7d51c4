import collections
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FINGERPRINT = os.path.join(ROOT, "tools", "fingerprint.py")
PERFBENCH = os.path.join(ROOT, "perfbench", "run.py")
PROGRAM = os.path.join(ROOT, "tools", "program.py")
PHASES = os.path.join(ROOT, "tools", "phases.py")
MEMORY = os.path.join(ROOT, "tools", "memory.py")
REFERENCES = os.path.join(ROOT, "tools", "fingerprints.txt")
LINE = re.compile(r"decay seed=1 sha256=[0-9a-f]{64} nodes/epoch=\d+(\.\d+)? "
                  r"valid_loss=\S+ epochs_to_tol=\d+")
SHAPES = re.compile(r"  shapes: (\((\d+(, \d+)*)?,?\) \u00d7\d+(, |$))+")
STEP = re.compile(r" +\d+ = [a-z_]+\((\d+(, \d+)*)?\)( into \d+)?"
                  r"( (NN|NT|TN|TT|K1))? \((\d+(, \d+)*)?,?\) float64")


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

    def test_expect_exits_1_printing_the_differing_lines(self, tmp_path):
        (line,) = fingerprint("--workload", "decay",
                              "--seeds", "1").stdout.splitlines()

        def expect(text, seeds="1"):
            path = tmp_path / "expected.txt"
            path.write_text(text)
            return fingerprint("--workload", "decay", "--seeds", seeds,
                               "--expect", str(path))
        # nodes/epoch is a cost, not an identity; "#" starts a comment
        ok = expect("# references\n" + re.sub(r"nodes/epoch=\S+",
                                               "nodes/epoch=1", line))
        assert ok.returncode == 0, ok.stderr
        assert ok.stdout.splitlines() == [line]
        wrong = line.replace("epochs_to_tol=", "epochs_to_tol=1")
        bad = expect(wrong + "\n", seeds="1-2")
        assert bad.returncode == 1, bad.stderr
        printed = bad.stdout.splitlines()
        assert printed[0] == line and LINE.fullmatch(
            printed[1].replace("seed=2", "seed=1"))
        assert printed[2:] == [f"expected: {wrong}", f"printed:  {line}",
                               "expected: no line",
                               f"printed:  {printed[1]}"]

    def test_reference_file_holds_on_seeds_1_2(self):
        # the references hold for the numpy and BLAS build the file's
        # header names; another build may round a matmul differently
        with open(REFERENCES) as f:
            header = f.read()
        numpy_version, blas, blas_version = re.search(
            r"numpy (\S+) with (\S+) (\d[\w.]*)", header).groups()
        built = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if (np.__version__, built["name"], built["version"]) != (
                numpy_version, blas, blas_version):
            pytest.skip(f"references are for numpy {numpy_version} with "
                        f"{blas} {blas_version}")
        run = fingerprint("--workload", "all", "--seeds", "1-2",
                          "--expect", REFERENCES)
        assert run.returncode == 0, run.stdout + run.stderr
        assert len(run.stdout.splitlines()) == 8

    def test_bad_seeds_exit_2(self):
        for seeds in ("abc", "5-3", ""):
            run = fingerprint("--workload", "decay", "--seeds", seeds)
            assert run.returncode == 2, seeds
            assert "not a seed or seed range" in run.stderr


class TestAllWorkloads:
    @pytest.mark.parametrize("name", ["fingerprint", "program"])
    def test_all_expands_to_the_four_workloads(self, name):
        # import the tool in a child, whose BLAS and malloc it pins
        tools = os.path.join(ROOT, "tools")
        run = subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {tools!r}); import {name}; "
             f"print(*[w.name for w in {name}.workloads('all')])"],
            capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["decay", "heat-d3", "poisson-gaussian",
                                      "sho-bundle"]


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
            assert [line.split(":")[0].strip() for line in block[1:5]] == [
                "fold", "alias", "share", "into"]
            recorded = int(block[0].split()[2])
            assert recorded >= left[0] and left == sorted(left, reverse=True)
            steps = [line for line in block if " = " in line]
            assert len(steps) == left[-1] > 0
            # each matmul is tagged with its BLAS form, every other step
            # with none; decay's tangent seed times the first weight has an
            # inner dimension of 1, and no weight is read transposed
            forms = [re.search(r"\) ([A-Z0-9]+) \(", line) for line in steps]
            assert all((form is not None) == (" = matmul(" in line)
                       for form, line in zip(forms, steps))
            forms = collections.Counter(f.group(1) for f in forms if f)
            assert forms["K1"] >= 1 and forms["NT"] == forms["TT"] == 0
            assert block[5].startswith(f"  {left[-1]} steps, ")
            assert SHAPES.fullmatch(block[6]), block[6]
            statements, code = map(int, re.fullmatch(
                r"  compiled: (\d+) statements, (\d+) bytes of bytecode",
                block[7]).groups())
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
            # the generated function: a statement per step, a del per step
            # that reads a register for the last time, and the return.  The
            # kept arrays are the largest slots no step writes (inputs come
            # first), and stay the function's
            outputs = json.loads(block[5].split("outputs ")[1])
            n_kept = int(block[5].split(", ")[1].split()[0])
            unwritten = sorted({a for r in read for a in r}.union(outputs)
                               - set(written))
            kept = set(unwritten[len(unwritten) - n_kept:])
            frees = sum(any(a not in kept and a not in outputs
                            and not any(a in r for r in read[k + 1:])
                            for a in read[k])
                        for k in range(len(steps)))
            assert 0 < frees < len(steps)
            assert statements == len(steps) + frees + 1
            assert code > 0

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

    def test_heat_d3_shares_one_second_order_stream(self):
        run = subprocess.run([sys.executable, PROGRAM, "--workload",
                              "heat-d3"],
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        training, validation = [
            len(re.findall(r" = matmul\([\d, ]*\) (?!K1)", part)) for part in
            run.stdout.split("validation program")]
        # the Laplacian's three coordinates share one second-order matmul
        # per layer (a second-order chain per coordinate: 51 and 21); an
        # inner-dimension-1 product is not counted
        assert training <= 43
        assert validation <= 17

    def test_heat_d3_tiles_its_wide_products_and_writes_in_place(self):
        run = subprocess.run([sys.executable, PROGRAM, "--workload",
                              "heat-d3"],
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        training, validation = run.stdout.split("validation program")
        # the (1024, 32) @ (32, 32) products, 12 in training and 6 in
        # validation, run as 2 row tiles of 512, and no other product is
        # tiled
        for part, count in ((training, 12), (validation, 6)):
            tiled = re.findall(r" = matmul\(\d+, \d+\) (\w+)\u00d7(\d+) "
                               r"(\([\d, ]*\))", part)
            assert tiled == [("NN", "2", "(1024, 32)")] * count
        into, moved = map(int, re.search(
            r"  into: (\d+) steps write into a dying argument, (\d+) moved",
            training).groups())
        assert into >= 160 and moved > 0

    # (training, validation) steps of ``shape``, or of any shape for None
    @pytest.mark.parametrize("name, shape, most", [
        ("heat-d3", "(1024, 32)", (143, 45)),
        ("sho-bundle", None, (127, 40)),
        ("poisson-gaussian", None, (368, 102)),
    ])
    def test_step_counts_are_bounded(self, name, shape, most):
        # each sweep builds its own tanh factors: ``share`` merges the
        # copies, but each sweep's adjoint through its factor stays its own
        run = subprocess.run([sys.executable, PROGRAM, "--workload", name],
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        blocks = [part.splitlines() for part in
                  run.stdout.split("validation program")]
        for block, bound in zip(blocks, most):
            counts = shape_counts(block)
            steps = counts[shape] if shape else sum(counts.values())
            assert steps <= bound, (shape, steps)


class TestPhases:
    PHASES = ["train sampling", "stream keying", "training replay",
              "optimizer step", "validation sampling", "validation replay",
              "other"]

    def check_block(self, name, head, rows):
        """One workload's printed lines: its head, then every phase within
        the epoch."""
        assert re.fullmatch(rf"{name} seed=1: median ms per epoch over \d+ "
                            r"epochs after \d+ warm-up", head), head
        ms = {}
        for row in rows:
            phase, value = re.fullmatch(r"  ([a-z ]+?) +(-?\d+\.\d{4})",
                                        row).groups()
            ms[phase] = float(value)
        phases = self.PHASES
        assert list(ms) == phases + ["epoch"]
        assert all(ms[p] >= 0 for p in phases), ms
        assert all(ms[p] > 0 for p in phases[:-1]), ms
        # each value is printed rounded to 0.5e-4
        assert sum(ms[p] for p in phases) <= ms["epoch"] + 4e-4, ms

    def test_decay_prints_every_phase_within_the_epoch(self):
        run = subprocess.run([sys.executable, PHASES, "--workload", "decay"],
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        head, *rows = run.stdout.splitlines()
        self.check_block("decay", head, rows)

    def test_all_prints_the_four_workloads_in_name_order(self):
        run = subprocess.run([sys.executable, PHASES, "--workload", "all"],
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        names = ["decay", "heat-d3", "poisson-gaussian", "sho-bundle"]
        size = len(self.PHASES) + 2
        assert len(lines) == size * len(names)
        for k, name in enumerate(names):
            head, *rows = lines[k * size:(k + 1) * size]
            self.check_block(name, head, rows)


class TestMemory:
    NUMBER = r" +(-?\d+\.\d\d)"
    SIGNED = r" +([+-]\d+\.\d\d)"

    def check_block(self, name, lines):
        """One workload's printed lines: the epoch's traced peak, then each
        program's peak and its phases, in MiB; returns {program: peak}."""
        assert lines[0] == f"{name} seed=1 epoch 1: traced MiB", lines[0]
        peak = float(re.fullmatch(rf"  traced peak{self.NUMBER}",
                                  lines[1]).group(1))
        programs, k = {}, 2
        for kind, phases in (("training", ["2-row build", "2-row sweep",
                                           "3-row build", "3-row sweep",
                                           "instantiation", "first replay"]),
                             ("validation", ["2-row build", "3-row build",
                                             "instantiation",
                                             "first replay"])):
            top, start = map(float, re.fullmatch(
                rf"  {kind} program: peak{self.NUMBER}, from{self.NUMBER}",
                lines[k]).groups())
            rises = []
            for phase, line in zip(phases, lines[k + 1:]):
                rise, held = map(float, re.fullmatch(
                    rf"    {phase} +peak{self.SIGNED}, held{self.SIGNED}",
                    line).groups())
                assert 0 <= held <= rise, line
                rises.append(rise)
            # each phase starts from what the ones before it left
            assert start < top <= peak
            assert max(rises) <= top - start + 0.01
            assert rises[0] > 0
            programs[kind] = top
            k += 1 + len(phases)
        assert k == len(lines)
        assert max(programs.values()) == peak
        return programs

    def test_decay_prints_each_program_by_phase(self):
        run = subprocess.run([sys.executable, MEMORY, "--workload", "decay"],
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        self.check_block("decay", run.stdout.splitlines())

    def test_all_prints_the_four_workloads_in_name_order(self):
        run = subprocess.run([sys.executable, MEMORY, "--workload", "all"],
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        heads = [i for i, line in enumerate(lines) if "epoch 1" in line]
        names = ["decay", "heat-d3", "poisson-gaussian", "sho-bundle"]
        assert [lines[i].split()[0] for i in heads] == names
        peaks = {name: self.check_block(name, lines[start:end])
                 for name, start, end in zip(names, heads,
                                             heads[1:] + [len(lines)])}
        # 43.6 MiB when every sweep built its own tanh factors, and 35.35
        # when the first epoch built the whole batch's graph to record it
        assert max(peaks["heat-d3"].values()) < 15


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
