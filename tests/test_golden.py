"""Golden runs: fixed-seed configs whose output files must not change.

Each config is run end to end and every CSV plus ``manifest.txt`` is
compared by SHA-256 against the digests recorded below, together with the
saved shot files and the ``compare_report`` summary (without its first line,
which names the run directory) where a config produces them. The library's
``run_randomized_measurements`` is pinned the same way: ``LIBRARY_GOLDEN``
digests its shot tables, unitaries and purity estimate. A refactor that
claims to keep outputs unchanged must keep these digests; an intentional
change of output (a re-keyed random stream, a new column) re-records them
once and says why in CHANGES.md.

Re-record with

    PYTHONPATH=src python3 tests/test_golden.py
"""
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sshquench import (
    child_generator,
    estimate_purity,
    quench_circuit,
    run_randomized_measurements,
)
from sshquench.experiment import compare_report, run_experiment

CONFIGS = {
    "noiseless_entropy": """\
L = 8
initial = neel
boundary = obc
t_points = 4
quantities = entropy
n_unitaries = 16
n_shots = 512
seed = 11
""",
    "noisy_mitigated_entropy": """\
L = 8
initial = singlet
boundary = pbc
t_max = 1.5707963267948966
t_points = 3
quantities = entropy
n_unitaries = 16
n_shots = 1024
p_layer = 0.013625
readout_flip = 0.01
mitigate = on
seed = 12
""",
    "twist_berry_readout": """\
L = 8
initial = singlet
boundary = obc
t_max = 1.5707963267948966
t_points = 6
quantities = twist,berry
n_shots = 4096
readout_flip = 0.02
seed = 13
""",
    # every table writer, both shot files and the report in one run
    "writers_full": """\
L = 8
initial = neel
boundary = pbc
t_max = 1.5707963267948966
t_points = 5
quantities = entropy,twist,berry
n_unitaries = 8
n_shots = 256
p_layer = 0.01
readout_flip = 0.02
mitigate = on
shift_mode = valley_to_zero
save_shots = true
seed = 14
""",
    # the exact-probabilities branch of every series, on an explicit subsystem
    "exact_all_quantities": """\
L = 8
initial = singlet
boundary = obc
t_max = 1.5707963267948966
t_points = 4
quantities = entropy,twist,berry
subsystem = 2,3,5
exact_probabilities = true
seed = 15
""",
    # plug-in estimator, noise without mitigation, a shift and two threads
    "plugin_shifted_threads": """\
L = 8
initial = neel
boundary = pbc
t_max = 1.5707963267948966
t_points = 4
quantities = entropy
subsystem = 1,4,6
n_unitaries = 6
n_shots = 128
estimator = plugin
p_layer = 0.02
mitigate = off
shift_mode = zero_at_t0
save_shots = true
threads = 2
seed = 16
""",
}

# configs whose comparison report is digested too
REPORTED = (
    "writers_full",
    "exact_all_quantities", "plugin_shifted_threads",
)

GOLDEN = {
    # The manifests of noiseless_entropy and twist_berry_readout were
    # re-recorded once: the manifest writes floats with repr, so their zero
    # noise rates read 0.0 where they read 0. The entropy.csv digests of
    # noiseless_entropy, noisy_mitigated_entropy, writers_full and
    # plugin_shifted_threads were re-recorded once: a zero entropy in the
    # oracle or mitigated column reads 0 where it read -0. The twist.csv
    # digests of twist_berry_readout, writers_full and exact_all_quantities
    # and the berry.csv digests of twist_berry_readout and
    # exact_all_quantities were re-recorded once: the exact twists are summed
    # from the histogram of W = sum_j j s_j, which moves their last bits
    # (at most 4.8e-14 in gamma_exact; exact mode copies them into the raw
    # and post columns).
    "noiseless_entropy": {
        "entropy.csv": "f90ae5f0c3cd49a894265fa69414f76f6ac92174fcc5a1e4e7946e9acb63cc60",
        "manifest.txt": "d628e069e9c62ca8ee8b606e2024dade8b6fbc8b572183c8ed6b3c5146798249",
    },
    "noisy_mitigated_entropy": {
        "entropy.csv": "5e3f8e47794d82fdafa97bd4a5f6969847db66140f6927bb6fe7d0b2ebc70f6f",
        "manifest.txt": "de264610a479ca96b8b1dd68ed0e87bfeb570639f47301b69ef8f1f5db55f064",
    },
    # Recorded on states built from the fused link blocks. The gate-level
    # build leaves rounding noise (down to 1e-102) on the probabilities
    # outside the singlet quench's support, and the multinomial sampler
    # spends a random draw on every nonzero entry, so the shot stream of a
    # singlet run without local rotations depends on which build made it.
    "twist_berry_readout": {
        "berry.csv": "d01f7df23a544d18d726136d53f17e3c7d8e8f391e13d5d7e19940cdd79ccdfa",
        "twist.csv": "f9613d4072f0db70d3a3f15d6be7ebaf3e0f5ac72da47d99437fc6b9e39b72d5",
        "manifest.txt": "908a909c8c970c7585bc01acea255db371878660b18164c37f9c29ca9f2968c3",
    },
    "writers_full": {
        "berry.csv": "4c6dc3027e3a94b1a47b7d00bca619c10787a1fac6307c4de413e63a48ca0ee9",
        "entropy.csv": "1ea81efe78a88930780b717425555d4d5dd6e55599006a7bbd09a89169df4c8d",
        "twist.csv": "21cd478d2a0a904eb08cfd0400515c7564b4aa45699043001be530374b65f165",
        "manifest.txt": "1775bb160594253455c012182352cf8c419f4aeb825ea891d4f4ffb5811b2d41",
        "shots/entropy_t0000.txt": "03808093dcbae1a8613aa5d54bd2b6de96bbaf16f3dd5073899a3b1f833a57db",
        "shots/entropy_t0001.txt": "11fe064cc2b19bb921cb68a3ea9025036bd54f6faea4e1367f34bef857ad7234",
        "shots/entropy_t0002.txt": "da6e0fad7e31b53ab6a25e0be89663d60afcdf4628020e6a072bae27f79b16aa",
        "shots/entropy_t0003.txt": "0e139102cc5524203f377f3623129ccc4f46d629c109cb543dceaf4d9730e597",
        "shots/entropy_t0004.txt": "adaf440a4b28b178e3e8d428bcb5e65efc50991f16bbe2df8564449f6b0bb934",
        "shots/twist_t0000.txt": "0e5a6bfb3095e5356ae91998d203a0710bc758183211077e08af30f323b85542",
        "shots/twist_t0001.txt": "dc355b1f3b7fb8e47455379263726b64f79f190f5b66b7ed17544e7e82b347fc",
        "shots/twist_t0002.txt": "4bedbda75018c98ebb82ab22fa1a51b0802606ba825cbc2ba97daa1b88ae5a72",
        "shots/twist_t0003.txt": "bfc228b216d34a46de15067851d90b25138a07a1b83f24fe0e0b18a534709b9e",
        "shots/twist_t0004.txt": "f3dd36a8f456456fbafd072474c69aacea9aa1568e068a63017c6c0c663760d3",
        "summary.txt": "71a954a3ffe45663d94dc3824bb0a41f42b9167fafaf94606f4b5e659d8ce0e7",
    },
    "exact_all_quantities": {
        "berry.csv": "c98f4d39f38af5d23eaf9e577001706d416db9e153f257c2bbf73bf157ae3b56",
        "entropy.csv": "f17b1f00e5c78d4a1a1862479b73e9d77d2e78ddfb047f020ff9e563233c51ca",
        "twist.csv": "b76f8151fad091d0ad39d93c21762ef722da5af5fcba22d948d58ad4506e6670",
        "manifest.txt": "3d29026338e706cc3503b99cd2e6acbcf96aff68e7c34e78906a83778b1b61d8",
        "summary.txt": "22dc0ada20dfbbe406b89c8b4fd94255633a8489fbd3691dbe077ba4d10f26e9",
    },
    "plugin_shifted_threads": {
        "entropy.csv": "eef4928ff5ae1c8606147a717cd467e665f46aa4f11298e71ff593f270568155",
        "manifest.txt": "ac772712d98e4391dddf85751d23a2999fe46ac88f108241500913c6372e9275",
        "shots/entropy_t0000.txt": "ff191bd3f4c276f11384c8fe8f138731cab3ceebc8cc8ec255b5d2b627e7b0bc",
        "shots/entropy_t0001.txt": "416a7fb0630622fa9f0bec11b9596045ce9eed1b2f06893a4e5f76aa97bfbc77",
        "shots/entropy_t0002.txt": "b4188a2411af69b333fb0360d52d0e59d89a2e3697f7a17356baefad10a1f694",
        "shots/entropy_t0003.txt": "f2e1bfe2ff31dd95db116a28a463529e839aedbbabbdaf2b2011cc718bdaef50",
        "summary.txt": "3dce839d6aae62653e317e44297c6893b1fb53c3f229f9de54e279dcdd90a17d",
    },
}


def run_digests(name: str, work: Path) -> dict[str, str]:
    """SHA-256 of every CSV, the manifest and the shot files of one golden run."""
    conf = work / f"{name}.conf"
    conf.write_text(CONFIGS[name])
    out = run_experiment(conf, out_dir=work / name, quiet=True)
    files = sorted(out.glob("*.csv")) + [out / "manifest.txt"]
    files += sorted(out.glob("shots/*.txt"))
    digests = {
        f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in files
    }
    if name in REPORTED:
        _run_line, body = compare_report(out).split("\n", 1)
        digests["summary.txt"] = hashlib.sha256(body.encode()).hexdigest()
    return digests


# library calls: (L, initial state) of a ring quenched to t = 0.3
LIBRARY_CASES = {"neel_l4": (4, "neel"), "singlet_l8": (8, "singlet")}

# Re-recorded once when the Haar draw moved from a LAPACK QR to Gram-Schmidt
# on the same normals: the unitaries changed in their last bits (about
# 1e-14), while every round's counts and the (value, sigma) estimate stayed
# the same.
LIBRARY_GOLDEN = {
    "neel_l4": "4142be1f3c805a7d56d072ebf8d37f5e465c009c744fe2b86493a034eabc17ac",
    "singlet_l8": "467b41f8065d4225cf93cca6b86fb3a8707d4e67b631d6ecff380d46c859999e",
}


def library_digest(name: str) -> str:
    """SHA-256 of the library's shot tables and purity estimate for one case.

    Covers every round's index, counts and unitaries, so a change in the
    order in which ``run_randomized_measurements`` draws from its generator
    changes the digest.
    """
    num_sites, initial = LIBRARY_CASES[name]
    state = quench_circuit(0.3, num_sites, initial, "pbc").run()
    tables = run_randomized_measurements(state, 6, 257, child_generator(7, 0))
    h = hashlib.sha256()
    for tb in tables:
        h.update(np.int64(tb.unitary_index).tobytes())
        h.update(np.asarray(tb.counts, dtype=np.int64).tobytes())
        for u in tb.unitaries:
            h.update(np.asarray(u, dtype=np.complex128).tobytes())
    est = estimate_purity(tables, (0, 1))
    h.update(repr((est.value, est.sigma)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name, tmp_path):
    assert run_digests(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_library_stream_digest(name):
    assert library_digest(name) == LIBRARY_GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = {name: run_digests(name, Path(work)) for name in sorted(CONFIGS)}
    sys.stdout.write("GOLDEN = {\n")
    for name, files in digests.items():
        sys.stdout.write(f'    "{name}": {{\n')
        for fname, digest in files.items():
            sys.stdout.write(f'        "{fname}": "{digest}",\n')
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n\nLIBRARY_GOLDEN = {\n")
    for name in sorted(LIBRARY_CASES):
        sys.stdout.write(f'    "{name}": "{library_digest(name)}",\n')
    sys.stdout.write("}\n")
