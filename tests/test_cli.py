import csv
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import spectral_ops
from spectral_ops import bench, fftconv, fit, gconv, ssm, verify
from spectral_ops.cli import main

# absolute, so children started with cwd=tmp_path still find the package
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(spectral_ops.__file__)))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return env


def run_cli(*args, env_extra=None, cwd=None):
    env = child_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "spectral_ops", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


SMALL_MODEL = [
    "--img-size", "8", "--patch-size", "4", "--embed-dim", "16",
    "--dim-feedforward", "32", "--depth", "1", "--num-classes", "4",
]


class TestVerifyCommand:
    def test_single_suite_passes(self):
        proc = run_cli("verify", "--suite", "fftconv")
        assert proc.returncode == 0
        assert "checks passed" in proc.stdout
        assert "FAIL" not in proc.stdout

    def test_unknown_suite_is_usage_error(self):
        proc = run_cli("verify", "--suite", "nonsense")
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_in_process_all_suites(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "/".join(["fftconv", "wrap-band-outside"]) in out

    def test_mutated_kernel_is_caught(self, capsys, monkeypatch):
        # the verification suite must actually exercise fft_xcorr2d: a
        # perturbed kernel has to turn at least one fftconv check red
        real = fftconv.fft_xcorr2d

        def crooked(image, kernel, *args, **kwargs):
            return real(image, kernel + 1e-6, *args, **kwargs)

        monkeypatch.setattr(fftconv, "fft_xcorr2d", crooked)
        results = verify.run_suites(["fftconv"])
        assert any(not r.passed for r in results)
        assert main(["verify", "--suite", "fftconv"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_run_suites_rejects_unknown_name(self):
        with pytest.raises(KeyError):
            verify.run_suites(["nonsense"])

    @pytest.mark.parametrize("suite", verify.SUITES)
    def test_suite_rows_pass(self, verify_rows, suite):
        rows, _ = verify_rows[suite]
        failed = [f"{r.check} (max-err {r.max_err:.3e}, tol {r.tol:.3e})"
                  for r in rows if not r.passed]
        assert not failed, f"{suite} failed: " + "; ".join(failed)

    def test_inventory_is_pinned(self, verify_rows):
        # every check, in order, under its suite and at its tolerance: a
        # dropped, renamed, moved or loosened check changes this list
        results = [r for rows, _ in verify_rows.values() for r in rows]
        assert [(r.suite, r.check, r.tol) for r in results] == [
            ("tensor", "randn-determinism", 0.0),
            ("tensor", "randn-moments-mean", 0.1),
            ("tensor", "randn-moments-var", 0.15),
            ("tensor", "ftns-roundtrip-bit-exact", 0.0),
            ("spectral", "fft-equals-naive-dft-1..64", 1e-10),
            ("spectral", "inverse-roundtrip", 1e-12),
            ("spectral", "linearity", 1e-10),
            ("spectral", "parseval-relative", 1e-10),
            ("spectral", "double-transform-reversal", 1e-10),
            ("spectral", "rfft2-vs-full-and-inverse", 1e-12),
            ("fftconv", "oracle-equivalence-f64", 1e-10),
            ("fftconv", "oracle-equivalence-f32", 1e-3),
            ("fftconv", "convolution-theorem", 1e-10),
            ("fftconv", "wrap-band-outside-exact", 0.0),
            ("fftconv", "wrap-band-inside-differs", 1e-6),
            ("fftconv", "circular-vs-direct", 1e-10),
            ("fftconv", "correlation-flip-duality", 1e-10),
            ("fftconv", "bias-adds-exactly", 0.0),
            ("fit", "fourier-mixing-vs-naive-dft", 1e-10),
            ("fit", "fourier-mixing-axis-commutation", 1e-10),
            ("fit", "fourier-mixing-linearity", 1e-10),
            ("fit", "layer-norm-shift-scale-invariance", 1e-8),
            ("fit", "attention-convexity", 1e-12),
            ("fit", "cross-entropy-uniform", 1e-12),
            ("fit", "param-count-vit-base-style", 0.02),
            ("fit", "param-count-mixer-gap-exact", 0.0),
            ("fit", "forward-purity-bit-exact", 0.0),
            ("ssm", "hippo-three-case-formula", 0.0),
            ("ssm", "matrix-exp-diagonal", 1e-12),
            ("ssm", "kernel-vs-per-t-exponential", 1e-8),
            ("ssm", "causal-conv-vs-direct", 1e-10),
            ("ssm", "causality-prefix", 1e-12),
            ("ssm", "negated-kernel-decay", 1e-12),
            ("gconv", "segment-decay-bound", 0.0),
            ("gconv", "half-pixel-resize-values", 0.0),
            ("gconv", "forward-vs-direct-oracle", 1e-10),
            ("gconv", "forward-linearity", 1e-10),
            ("gconv", "scale-count-doubling", 0.0),
        ]
        assert all(r.passed for r in results)
        # every check passes by max_err <= tol, but the one that must find a
        # difference, which passes by max_err > tol
        inverted = [r.check for r in results if r.max_err > r.tol]
        assert inverted == ["wrap-band-inside-differs"]


class TestBenchCommands:
    def test_conv_csv_shape_and_order(self, tmp_path):
        out = tmp_path / "conv.csv"
        assert main([
            "bench", "conv", "--image-sizes", "8,16", "--kernel-sizes", "3,5",
            "--repeats", "2", "--out", str(out),
        ]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 8  # 2 sizes x 2 kernels x {direct, fft}
        keys = [(r["params"], r["method"]) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert r["suite"] == "conv"
            assert float(r["median_ms"]) > 0.0
            assert r["repeats"] == "2"
            float(r["checksum"])  # parses

    def test_direct_and_fft_share_checksums(self, tmp_path):
        out = tmp_path / "conv.csv"
        main(["bench", "conv", "--image-sizes", "8", "--kernel-sizes", "3",
              "--repeats", "2", "--out", str(out)])
        rows = list(csv.DictReader(out.open()))
        by_method = {r["method"]: float(r["checksum"]) for r in rows}
        # benchmark arrays are float32, so the two routes agree to ~1e-7
        assert by_method["direct"] == pytest.approx(by_method["fft"], rel=1e-5)

    def test_mixing_to_stdout(self, capsys):
        assert main(["bench", "mixing", "--seq-lens", "16,32", "--dim", "8",
                     "--repeats", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "suite,params,method,median_ms,repeats,checksum"
        assert len(lines) == 5
        methods = {line.split(",")[2] for line in lines[1:]}
        assert methods == {"fourier", "attention"}

    def test_seq_to_stdout(self, capsys):
        assert main(["bench", "seq", "--seq-lens", "32,64", "--repeats", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "suite,params,method,median_ms,repeats,checksum"
        assert len(lines) == 5  # 2 lengths x {ssm_kernel, gconv_forward}
        rows = [line.split(",") for line in lines[1:]]
        assert {(r[0], r[1]) for r in rows} == {("seq", "L=32"), ("seq", "L=64")}
        assert {r[2] for r in rows} == {"ssm_kernel", "gconv_forward"}

    def test_json_document(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        out = tmp_path / "seq.json"
        assert main(["bench", "seq", "--seq-lens", "64,32", "--repeats", "3", "--json",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        env = doc["environment"]
        assert set(env) == {"python", "numpy", "scipy", "blas", "cpu_count", "cpu_affinity",
                            "thread_vars"}
        assert env["numpy"] == np.__version__ and env["cpu_count"] == os.cpu_count()
        assert env["cpu_affinity"] == sorted(os.sched_getaffinity(0))
        assert env["thread_vars"]["OPENBLAS_NUM_THREADS"] == "1"
        # write_csv's order and fields, with the spread and the samples beside them
        assert [(r["params"], r["method"]) for r in doc["rows"]] == [
            ("L=32", "gconv_forward"), ("L=32", "ssm_kernel"),
            ("L=64", "gconv_forward"), ("L=64", "ssm_kernel")]
        for r in doc["rows"]:
            assert r["n"] == len(r["samples_ms"]) == len(r["minor_faults"]) == len(r["cpu_ms"]) == 3
            assert r["min_ms"] == min(r["samples_ms"])
            assert r["median_ms"] == sorted(r["samples_ms"])[1]
            assert r["min_ms"] <= r["median_ms"] <= r["p90_ms"] <= max(r["samples_ms"])
            assert all(isinstance(f, int) and f >= 0 for f in r["minor_faults"])
            assert r["suite"] == "seq" and np.isfinite(r["checksum"])

    @pytest.mark.parametrize("show_config", [
        lambda: None,  # an older numpy: no mode argument, so a TypeError
        lambda mode: {"Build Dependencies": {}},
    ])
    def test_json_blas_unknown(self, show_config, monkeypatch):
        monkeypatch.setattr(np, "show_config", show_config)
        assert bench.environment()["blas"] is None

    def test_seq_times_first_calls(self, monkeypatch):
        # every call, untimed ones included, builds its kernel: no cache hit is timed
        calls = []
        for module, name in ((ssm, "matrix_exp"), (gconv, "build_kernel")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        bench.bench_seq([32], repeats=2)
        assert sorted(calls) == ["build_kernel"] * 4 + ["matrix_exp"] * 4

    def test_conv_guard_raises_under_optimize(self, monkeypatch, capsys):
        # a RuntimeError, unlike an assert, survives python -O
        real = fftconv.fft_xcorr2d

        def crooked(image, kernel, *args, **kwargs):
            return real(image, kernel + 1e-6, *args, **kwargs)

        monkeypatch.setattr(fftconv, "fft_xcorr2d", crooked)
        with pytest.raises(RuntimeError, match="conv guard failed"):
            bench.bench_conv([8], [3], repeats=1)
        assert main(["bench", "conv", "--image-sizes", "8", "--kernel-sizes", "3",
                     "--repeats", "1"]) == 1
        assert "conv guard failed" in capsys.readouterr().err

    def test_malformed_size_list_is_usage_error(self):
        proc = run_cli("bench", "conv", "--image-sizes", "8,x", "--kernel-sizes", "3")
        assert proc.returncode == 2

    @pytest.mark.parametrize("args", [
        ["conv", "--image-sizes", "8", "--kernel-sizes", "3", "--repeats", "0"],
        ["mixing", "--seq-lens", "8", "--dim", "0"],
    ])
    def test_non_positive_count_is_usage_error(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", *args])
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err

    def test_seq_length_below_32_is_usage_error(self, capsys):
        # the sequence layers' base kernel is 32 wide, as `bench seq --help` says
        with pytest.raises(SystemExit) as exc:
            main(["bench", "seq", "--seq-lens", "64,16", "--repeats", "1"])
        assert exc.value.code == 2
        assert "expected lengths >= 32, got '64,16'" in capsys.readouterr().err

    def test_non_integer_seed_env_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("SPECTRAL_OPS_SEED", "abc")
        assert main(["bench", "seq", "--seq-lens", "32", "--repeats", "1"]) == 2
        captured = capsys.readouterr()
        assert "SPECTRAL_OPS_SEED" in captured.err
        assert captured.out == ""

    def test_unwritable_out_is_runtime_error(self, tmp_path, capsys):
        missing = tmp_path / "absent" / "rows.csv"
        code = main(["bench", "mixing", "--seq-lens", "8", "--dim", "4",
                     "--repeats", "1", "--out", str(missing)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestImport:
    # Each case runs in a fresh process and prints every loaded scipy module.
    SCIPY_MODULES = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"

    def run_fresh(self, code):
        proc = subprocess.run(
            [sys.executable, "-c", f"{code}; {self.SCIPY_MODULES}"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()[-1]

    def test_bare_import_loads_no_heavy_scipy_modules(self):
        assert self.run_fresh("import sys, spectral_ops") == "[]"

    def test_init_model_loads_no_scipy_module(self, tmp_path):
        args = ["init-model", "--out", str(tmp_path / "model"), *SMALL_MODEL,
                "--sample-input", str(tmp_path / "img.ftns")]
        code = f"import sys; from spectral_ops import cli; cli.main({args!r})"
        assert self.run_fresh(code) == "[]"
        assert (tmp_path / "img.ftns").exists()


def test_default_demo_path_starts_no_thread(tmp_path):
    # the default config draws no tensor of more than one Rng.normal block and
    # its block tails stay below the row-split threshold, so no second thread
    # starts.  `import spectral_ops` loads no concurrent.futures module, and the
    # demo loads no pool module (scipy.special itself imports concurrent.futures).
    model, image = str(tmp_path / "model"), str(tmp_path / "img.ftns")
    code = (
        "import sys, threading; started = []; start = threading.Thread.start\n"
        "threading.Thread.start = lambda self: (started.append(self.name), start(self))\n"
        "import spectral_ops; from spectral_ops import cli\n"
        "imported = [m for m in sys.modules if m.startswith('concurrent')]\n"
        f"cli.main({['init-model', '--out', model, '--sample-input', image]!r})\n"
        f"cli.main({['demo', '--model', model, '--input', image]!r})\n"
        "pools = [m for m in ('concurrent.futures.thread', 'concurrent.futures.process')"
        " if m in sys.modules]\n"
        "print((started, imported, pools))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    *demo_lines, loaded = proc.stdout.splitlines(keepends=True)
    assert loaded.strip() == "([], [], [])"
    demo = run_cli("demo", "--model", model, "--input", image)
    assert demo.returncode == 0 and "".join(demo_lines).endswith(demo.stdout)


class TestModelCommands:
    def test_demo_runs_are_byte_identical(self, tmp_path):
        init = run_cli(
            "init-model", "--out", "model", *SMALL_MODEL,
            "--sample-input", "img.ftns", cwd=tmp_path,
        )
        assert init.returncode == 0, init.stderr
        first = run_cli("demo", "--model", "model", "--input", "img.ftns", cwd=tmp_path)
        second = run_cli("demo", "--model", "model", "--input", "img.ftns", cwd=tmp_path)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        assert first.stdout.startswith("logits: ")
        argmax_line = first.stdout.strip().splitlines()[-1]
        assert argmax_line.startswith("argmax: ")
        assert 0 <= int(argmax_line.split()[-1]) < 4

    def test_mixer_choice_changes_saved_weights(self, tmp_path):
        main(["init-model", "--out", str(tmp_path / "f"), *SMALL_MODEL])
        main(["init-model", "--out", str(tmp_path / "a"), *SMALL_MODEL,
              "--mixer", "attention"])
        assert not (tmp_path / "f" / "block0.w_q.ftns").exists()
        assert (tmp_path / "a" / "block0.w_q.ftns").exists()
        f_manifest = (tmp_path / "f" / "manifest.txt").read_text()
        a_manifest = (tmp_path / "a" / "manifest.txt").read_text()
        assert "mixer fourier" in f_manifest.replace("=", " ")
        assert "mixer attention" in a_manifest.replace("=", " ")

    def test_seed_env_matches_explicit_flag(self, tmp_path):
        env_run = run_cli("init-model", "--out", "by-env", *SMALL_MODEL,
                          env_extra={"SPECTRAL_OPS_SEED": "7"}, cwd=tmp_path)
        assert env_run.returncode == 0, env_run.stderr
        main(["init-model", "--out", str(tmp_path / "by-flag"), *SMALL_MODEL,
              "--seed", "7"])
        main(["init-model", "--out", str(tmp_path / "default"), *SMALL_MODEL])
        by_env = (tmp_path / "by-env" / "head_weight.ftns").read_bytes()
        by_flag = (tmp_path / "by-flag" / "head_weight.ftns").read_bytes()
        default = (tmp_path / "default" / "head_weight.ftns").read_bytes()
        assert by_env == by_flag
        assert by_env != default  # seed 7 vs default 42

    def test_non_integer_seed_env_is_usage_error(self, tmp_path):
        proc = run_cli("init-model", "--out", "m", *SMALL_MODEL,
                       env_extra={"SPECTRAL_OPS_SEED": "abc"}, cwd=tmp_path)
        assert proc.returncode == 2
        assert "SPECTRAL_OPS_SEED" in proc.stderr
        assert not (tmp_path / "m").exists()

    def test_demo_missing_model_is_runtime_error(self, tmp_path, capsys):
        code = main(["demo", "--model", str(tmp_path / "void"),
                     "--input", str(tmp_path / "img.ftns")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_init_model_defaults_are_fit_config_defaults(self, tmp_path):
        assert main(["init-model", "--out", str(tmp_path / "m")]) == 0
        assert fit.load_model(tmp_path / "m").config == fit.FitConfig()

    def test_init_model_rejects_bad_geometry(self, capsys):
        code = main(["init-model", "--out", "unused", "--img-size", "10",
                     "--patch-size", "4"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def test_all_names_resolve():
    # a stale __all__ entry would break `from spectral_ops import *`
    assert [name for name in spectral_ops.__all__ if not hasattr(spectral_ops, name)] == []
    namespace = {}
    exec("from spectral_ops import *", namespace)
    assert set(spectral_ops.__all__) <= set(namespace)


def test_perfbench_traced_names_exist():
    # perfbench's traced run wraps these functions by name; a removed or
    # renamed one would crash it, so every target must stay a callable attribute
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.LAYER_TARGETS.items():
        for name in names:
            target = getattr(importlib.import_module(f"spectral_ops.{module}"), name, None)
            assert callable(target), f"{module}.{name}"
