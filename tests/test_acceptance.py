"""End-to-end acceptance checks for the package's documented guarantees.

Each test covers one headline guarantee — oracle equivalence, the analytic
identities, the parameter-count closed forms, the qualitative timing trends,
and end-to-end determinism of the command-line tools — and prints a single
summary line.  The oracle and invariant criteria (1–6, 8 and 9) read the
`verify` rows they rest on from the session's one run of the suites (the
`verify_rows` fixture in conftest.py), so each check is computed in one place;
criteria 1 and 2 bound the wall time of the whole `fftconv` suite.  Run with

    python3 -m pytest tests/test_acceptance.py -v -s

to see the lines as they pass; a plain pytest run shows them only on failure.
"""

import time

from spectral_ops import bench_conv, bench_mixing
from test_cli import run_cli


def _check(num, label, ok, detail):
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{label}] failed: {detail}"


def _rows(verify_rows, suite):
    """The suite's rows by check name, and its wall time in seconds."""
    rows, seconds = verify_rows[suite]
    return {r.check: r for r in rows}, seconds


def test_01_fft_conv_matches_direct_oracle(verify_rows):
    rows, seconds = _rows(verify_rows, "fftconv")
    grid = rows["oracle-equivalence-f64"]
    _check(1, "fft vs direct, full grid", grid.passed and seconds < 30.0,
           f"max err {grid.max_err:.3e} over c 1,3, n 4-32, odd m 1-9, all modes, "
           f"fftconv suite {seconds:.1f}s")


def test_02_convolution_theorem(verify_rows):
    rows, seconds = _rows(verify_rows, "fftconv")
    theorem = rows["convolution-theorem"]
    _check(2, "convolution theorem", theorem.passed and seconds < 5.0,
           f"max err {theorem.max_err:.3e} over 100 pairs, fftconv suite {seconds:.2f}s")


def test_03_circular_wrap_band(verify_rows):
    rows, _ = _rows(verify_rows, "fftconv")
    outside, inside, fft = (rows[c] for c in ("wrap-band-outside-exact", "wrap-band-inside-differs",
                                              "circular-vs-direct"))
    _check(3, "wrap band n=16 m=5", outside.passed and inside.passed and fft.passed,
           f"outside band {outside.max_err:.1e} (exact), inside band {inside.max_err:.2f}, "
           f"fft route {fft.max_err:.3e}")


def test_04_fourier_mixing_matches_naive_dft(verify_rows):
    rows, _ = _rows(verify_rows, "fit")
    mix, commute = rows["fourier-mixing-vs-naive-dft"], rows["fourier-mixing-axis-commutation"]
    _check(4, "fourier mixing vs naive DFT", mix.passed and commute.passed,
           f"vs naive {mix.max_err:.3e}, axis-order commutation {commute.max_err:.3e}")


def test_05_parameter_counts(verify_rows):
    rows, _ = _rows(verify_rows, "fit")
    vit, gap = rows["param-count-vit-base-style"], rows["param-count-mixer-gap-exact"]
    _check(5, "parameter counts", vit.passed and gap.passed,
           f"attention {100 * vit.max_err:.2f}% from 86M, mixer gap off the closed form by "
           f"{gap.max_err:.0f}")


def test_06_uniform_cross_entropy(verify_rows):
    rows, _ = _rows(verify_rows, "fit")
    loss = rows["cross-entropy-uniform"]
    _check(6, "uniform cross-entropy", loss.passed, f"|loss - ln 10| = {loss.max_err:.2e}")


def test_07_timing_trends():
    start = time.perf_counter()
    ratio_rows = bench_conv([256], [3, 31], repeats=3)
    t = {(r.params, r.method): r.median_ms for r in ratio_rows}
    direct_ratio = t[("n=256 m=31", "direct")] / t[("n=256 m=3", "direct")]
    fft_ratio = t[("n=256 m=31", "fft")] / t[("n=256 m=3", "fft")]

    rows = bench_conv([224], [31], repeats=3)
    t = {r.method: r.median_ms for r in rows}
    crossover = t["fft"] < t["direct"]

    rows = bench_mixing([4096], 256, repeats=3)
    ratio_rows += rows
    t = {r.method: r.median_ms for r in rows}
    mixing_ratio = t["attention"] / t["fourier"]

    elapsed = time.perf_counter() - start
    ok = direct_ratio >= 10.0 and fft_ratio <= 1.5 and crossover and mixing_ratio >= 3.0 and elapsed < 300.0
    samples = "; ".join(f"{r.params} {r.method} " + " ".join(f"{ms:.2f}" for ms in r.samples_ms)
                        + " | faults " + " ".join(map(str, r.minor_faults))
                        + " | cpu " + " ".join(f"{ms:.2f}" for ms in r.cpu_ms)
                        for r in ratio_rows)
    _check(7, "timing trends", ok,
           f"direct m31/m3 {direct_ratio:.1f} (>=10), fft {fft_ratio:.2f} (<=1.5), "
           f"fft<direct at n=224 {crossover}, fourier speedup {mixing_ratio:.1f}x (>=3), {elapsed:.0f}s; "
           f"samples ms | minor faults | thread CPU ms: {samples}")


def test_08_ssm_formulas(verify_rows):
    # HiPPO N=2's literal entries are pinned in test_ssm.py::TestHippoLegs::test_n2_exact
    rows, _ = _rows(verify_rows, "ssm")
    hippo, kernel, causal = (rows[c] for c in ("hippo-three-case-formula",
                                               "kernel-vs-per-t-exponential",
                                               "causal-conv-vs-direct"))
    _check(8, "state-space formulas", hippo.passed and kernel.passed and causal.passed,
           f"hippo N=1,2,4,8 vs three-case formula {hippo.max_err:.1e}, kernel vs expm "
           f"{kernel.max_err:.3e}, causal conv vs O(L^2) {causal.max_err:.3e}")


def test_09_gconv(verify_rows):
    rows, _ = _rows(verify_rows, "gconv")
    bound, forward, ramp = (rows[c] for c in ("segment-decay-bound", "forward-vs-direct-oracle",
                                              "half-pixel-resize-values"))
    _check(9, "multi-scale gconv", bound.passed and forward.passed and ramp.passed,
           f"decay bound excess {bound.max_err:.1e}, forward vs direct {forward.max_err:.3e}, "
           f"half-pixel ramp error {ramp.max_err:.1e}")


def test_10_end_to_end_determinism(tmp_path):
    def run(*args):
        return run_cli(*args, cwd=tmp_path)

    verify_proc = run("verify")
    init_proc = run(
        "init-model", "--out", "model", "--img-size", "8", "--patch-size", "4",
        "--embed-dim", "16", "--dim-feedforward", "32", "--depth", "1",
        "--sample-input", "img.ftns",
    )
    first = run("demo", "--model", "model", "--input", "img.ftns")
    second = run("demo", "--model", "model", "--input", "img.ftns")
    ok = (
        verify_proc.returncode == 0
        and init_proc.returncode == 0
        and first.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.startswith("logits:")
    )
    tail = verify_proc.stdout.strip().splitlines()[-1] if verify_proc.stdout else "no output"
    _check(10, "end-to-end determinism", ok,
           f"verify exit {verify_proc.returncode} ({tail}), demo runs byte-identical "
           f"{first.stdout == second.stdout}")
