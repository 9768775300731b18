"""Write one BENCH_<n>.json: the benchmark's figures and the behaviour's
fingerprint for one checkout.

    python3 tools/bench_snapshot.py BENCH_<n>.json [--root CHECKOUT]

CHECKOUT (default: this one) is measured at its committed HEAD: the script
refuses a checkout whose src/ differs from HEAD, so git_head names the code
measured.  The file holds, for every workload in CHECKOUT/BENCHMARK.json,
the last JSON line of `perfbench/run.py --seconds <run_seconds>` (the
benchmark's own run length) untraced and with `--trace 1` (plus the traced
passes' trust-region certificate lines), and the wall_s of every pass of
the untraced run, whose median that line reports; the wall time of the
full default grid (`motrbench run`, one process, raw seconds) with the
SHA-256 of its `runs.jsonl` and both score tables from `motrbench table`;
the line count of src/motrbench/*.py; the number of values a config can
set (the ExperimentConfig fields, plus every controller and generator
spec field in checkouts that have spec fields);
the machine: Python and numpy versions, CPU count, platform, whether
PYTHONDONTWRITEBYTECODE was set, in which case every benchmark process
compiles src/ from source, its set-up and warm-up passes included, and
the BLAS kernel settings and the kernel that ran, since runs.jsonl's
hash holds for one kernel only; and every command that produced these
figures, in the order they ran.  kernel_drift holds how far the `grid`
workload's records (perfbench/workloads.py, base seed 0) move from
OpenBLAS's default kernel to KERNEL_DRIFT_CORETYPE, per (controller,
generator); it is null unless numpy's BLAS can swap its kernel
(kernel_swap_unavailable).  Schema 2 is schema 1 (BENCH_1 to BENCH_5)
plus settable_values; schema 3 adds machine.dont_write_bytecode, schema 4
machine.blas, schema 5 machine.blas.openblas_corename, schema 6 each
workload's untraced_wall_s, and schema 7 kernel_drift.

A pass's wall_s moves by a few percent from pass to pass on a shared
machine, so two files, one median per workload each, do not resolve a
change smaller than that spread: read it from untraced_wall_s, and
compare interleaved runs of perfbench/run.py for a smaller change.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import re
import runpy
import shlex
import subprocess
import sys
import tempfile
import time

import numpy

import drift_report

SCHEMA = 7
HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark and the grid run with one BLAS thread, as perfbench/run.py
# runs its workers.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Checkouts before controllers and generators became bare names also hold
# the spec fields of their CONTROLLER_DEFAULTS and GENERATOR_DEFAULTS tables.
SETTABLE_VALUES = (
    "import dataclasses; import motrbench.bench as b; "
    "print(len(dataclasses.fields(b.ExperimentConfig))"
    " + sum(len(spec) for table in ('CONTROLLER_DEFAULTS', 'GENERATOR_DEFAULTS')"
    " for spec in getattr(b, table, {}).values()))"
)
# The kernel kernel_drift compares with the default one: every x86-64 CPU
# can run it, and this OpenBLAS runs the kernel it names.
KERNEL_DRIFT_CORETYPE = "Nehalem"
# Child code, run with this directory on the path: CORENAME_CHILD prints
# the kernel that runs, and KERNEL_CHILD then runs the motrbench command
# line on its arguments.
CORENAME_CHILD = "import bench_snapshot; print(bench_snapshot.openblas_corename())"
KERNEL_CHILD = CORENAME_CHILD + "; import sys; from motrbench.cli import main; sys.exit(main(sys.argv[1:]))"


def _run(cmd, root, commands, env=None, out_dir=None):
    """Run cmd in root; record it as a reader would type it, with python3
    for this interpreter and OUT for the temporary output directory."""
    shown = shlex.join("python3" if arg == sys.executable else arg for arg in cmd)
    commands.append(shown.replace(out_dir, "OUT") if out_dir else shown)
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    return proc.stdout


def _checked_result(out, what):
    """The final JSON line of a perfbench/run.py pass.  run.py exits 0 even
    when a pass fails its own checks, so a pass that reports correct other
    than true, or failed episodes, stops the snapshot here."""
    try:
        result = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{what}: the last line of its output is not JSON") from None
    if not isinstance(result, dict):
        raise SystemExit(f"{what}: the last line of its output is not a JSON object")
    if result.get("correct") is not True or result.get("failed") != 0:
        raise SystemExit(
            f"{what}: correct {result.get('correct')}, failed {result.get('failed')}; "
            "no BENCH file written"
        )
    return result


def untraced_wall_s(out, what):
    """The wall_s of every untraced pass in a perfbench/run.py output, in
    pass order, from its `untraced pass i: wall_s ...` lines."""
    walls = [float(v) for v in re.findall(r"^untraced pass \d+: wall_s (\S+) ", out, re.MULTILINE)]
    if not walls:
        raise SystemExit(f"{what}: no untraced pass line with a wall_s; no BENCH file written")
    return walls


def settable_values(root, commands):
    """The number of values a config of the checkout at root can set."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    return int(_run([sys.executable, "-c", SETTABLE_VALUES], root, commands, env))


def openblas_corename():
    """The name of the kernel that numpy's bundled OpenBLAS runs (the one
    OPENBLAS_CORETYPE names, or its pick for the CPU), read with ctypes
    from the library under numpy.libs; None when there is no such library
    or it exports no corename function."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


def kernel_swap_unavailable():
    """Why OPENBLAS_CORETYPE cannot swap numpy's BLAS kernel, or None when
    it can: numpy's BLAS must be an OpenBLAS with DYNAMIC_ARCH on x86-64."""
    try:
        config = numpy.show_config(mode="dicts")
    except TypeError:
        return "numpy cannot report its build configuration"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    cpu = config.get("Machine Information", {}).get("host", {}).get("cpu")
    if "openblas" not in str(blas.get("name", "")).lower():
        return f"numpy's BLAS is {blas.get('name')!r}, not OpenBLAS"
    if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")).split():
        return "numpy's OpenBLAS is built without DYNAMIC_ARCH"
    if cpu != "x86_64":
        return f"the CPU is {cpu!r}, not x86_64"
    return None


def kernel_drift_block(corenames, runs_default, runs_swapped):
    """The kernel_drift block of two runs.jsonl paths, the default kernel's
    and KERNEL_DRIFT_CORETYPE's, run by the kernels corenames names: per
    "controller-generator" pair, drift_report.drift's identical and record
    counts and its worst relative changes in cumulative_average_cost and in
    any stage cost."""
    pairs, unmatched = drift_report.drift(drift_report.load(runs_default), drift_report.load(runs_swapped))
    return {
        "workload": "grid",
        "base_seed": 0,
        "openblas_coretype": KERNEL_DRIFT_CORETYPE,
        "openblas_corename": dict(zip(("default", KERNEL_DRIFT_CORETYPE), corenames)),
        "records_in_one_file_only": unmatched,
        "pairs": {
            f"{ctrl}-{gen}": {k: row[k] for k in ("identical", "records", "cumulative_average_cost", "stage_costs")}
            for (ctrl, gen), row in sorted(pairs.items())
        },
    }


def kernel_drift(root, commands):
    """Run the `grid` workload's config of the checkout at root (base seed
    0) through `motrbench run` in two one-BLAS-thread children, on the
    default kernel and under OPENBLAS_CORETYPE=KERNEL_DRIFT_CORETYPE, and
    return their kernel_drift_block; None when kernel_swap_unavailable."""
    if kernel_swap_unavailable() is not None:
        return None
    grid = runpy.run_path(os.path.join(root, "perfbench", "workloads.py"))["WORKLOADS"]["grid"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((os.path.join(root, "src"), HERE)), **BLAS_ENV)
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "grid.json")
        with open(config, "w") as fh:
            json.dump(dict(grid, base_seed=0), fh)
        corenames, runs = [], []
        for kernel in ("default", KERNEL_DRIFT_CORETYPE):
            coretype = ["-u", "OPENBLAS_CORETYPE"] if kernel == "default" else [f"OPENBLAS_CORETYPE={kernel}"]
            out_dir = os.path.join(tmp, kernel)
            cmd = ["env", *coretype, sys.executable, "-c", KERNEL_CHILD, "run", "--config", config, "--out", out_dir]
            corenames.append(_run(cmd, root, commands, env, tmp).splitlines()[0])
            runs.append(os.path.join(out_dir, "runs.jsonl"))
        return kernel_drift_block(corenames, *runs)


def machine():
    """The machine block.  dont_write_bytecode is sys.dont_write_bytecode of
    a child interpreter with this environment, as the benchmark's processes
    get it: when PYTHONDONTWRITEBYTECODE sets it, no compiled bytecode is
    cached, so each process pays the compile and its memory.  blas holds
    OPENBLAS_CORETYPE as those processes get it (None: OpenBLAS picks the
    kernel for the CPU), numpy's OpenBLAS configuration string (None for
    another BLAS), which names the build target, and the kernel that runs
    (openblas_corename)."""
    child = subprocess.run(
        [sys.executable, "-c", "import sys; print(sys.dont_write_bytecode)"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "dont_write_bytecode": child.stdout.strip() == "True",
        "blas": {
            "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
            "openblas_configuration": blas.get("openblas configuration"),
            "openblas_corename": openblas_corename(),
        },
    }


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="path of the BENCH_<n>.json to write")
    parser.add_argument("--root", default=os.path.dirname(HERE), help="checkout to measure")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    commands = []

    dirty = subprocess.run(
        ["git", "status", "--porcelain", "src"], cwd=root, stdout=subprocess.PIPE, text=True
    )
    if dirty.returncode != 0 or dirty.stdout.strip():
        raise SystemExit(f"{root}: src/ is not a clean git checkout; commit it first")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE, text=True)
    if head.returncode != 0 or not head.stdout.strip():
        raise SystemExit(f"{root}: git rev-parse HEAD failed; no BENCH file written")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    perfbench = {}
    for workload in workloads:
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seconds", str(seconds), "--trace", str(trace)]
            out = _run(cmd, root, commands)
            lines = out.splitlines()
            entry["traced" if trace else "untraced"] = _checked_result(out, " ".join(cmd[1:]))
            if not trace:
                entry["untraced_wall_s"] = untraced_wall_s(out, " ".join(cmd[1:]))
            else:
                entry["certificates"] = [
                    line.strip() for line in lines if re.search(r"solves certified", line)
                ]
        perfbench[workload] = entry

    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **BLAS_ENV)
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.monotonic()
        _run([sys.executable, "-m", "motrbench.cli", "run", "--out", tmp], root, commands, env, tmp)
        grid_wall = time.monotonic() - t0
        table_text = _run(
            [sys.executable, "-m", "motrbench.cli", "table", "--runs", os.path.join(tmp, "runs.jsonl")],
            root, commands, env, tmp,
        )
        tables = {}
        for kind in ("ratio", "minmax"):
            with open(os.path.join(tmp, f"table_{kind}.csv")) as fh:
                tables[kind] = fh.read().splitlines()
        full_grid = {
            "wall_raw_s": round(grid_wall, 2),
            "runs_jsonl_sha256": _sha256(os.path.join(tmp, "runs.jsonl")),
            "table_ratio_sha256": _sha256(os.path.join(tmp, "table_ratio.csv")),
            "table_minmax_sha256": _sha256(os.path.join(tmp, "table_minmax.csv")),
            "tables": tables,
            "table_text": table_text.splitlines(),
        }

    wc = _run(["sh", "-c", "wc -l src/motrbench/*.py"], root, commands)
    settable = settable_values(root, commands)
    snapshot = {
        "schema": SCHEMA,
        "command": f"python3 tools/bench_snapshot.py {os.path.basename(args.out)} --root CHECKOUT",
        "git_head": head.stdout.strip(),
        "machine": machine(),
        "perfbench_seconds": seconds,
        "perfbench": perfbench,
        "full_grid": full_grid,
        "src_lines": {
            "total": int(wc.splitlines()[-1].split()[0]),
            "files": [line.strip() for line in wc.splitlines()[:-1]],
        },
        "settable_values": settable,
        "kernel_drift": kernel_drift(root, commands),
        "commands": commands,
    }
    with open(args.out, "w") as fh:
        json.dump(snapshot, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
