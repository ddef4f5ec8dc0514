"""Golden runs: fixed-seed configs whose output files must not change.

Each config is run end to end and every CSV plus ``manifest.txt`` is
compared by SHA-256 against the digests recorded below, together with the
saved shot files and the ``compare_report`` summary (without its first line,
which names the run directory) where a config produces them. A refactor that
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

import pytest

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
}

# configs whose comparison report is digested too
REPORTED = ("writers_full",)

GOLDEN = {
    "noiseless_entropy": {
        "entropy.csv": "78e1444427a164463078bc659f9718eed1392d2990811cd52e859f5eb27647b0",
        "manifest.txt": "72175cec636dd7c179b0b20306b2a5afc74cd39e06be98d31493b5af0d82f173",
    },
    "noisy_mitigated_entropy": {
        "entropy.csv": "fb9abb18531ad2738d7e1f4f2c70d2f5e6b9d175f7e80ef733c37124b8f8fd4d",
        "manifest.txt": "de264610a479ca96b8b1dd68ed0e87bfeb570639f47301b69ef8f1f5db55f064",
    },
    # Recorded on states built from the fused link blocks. The gate-level
    # build leaves rounding noise (down to 1e-102) on the probabilities
    # outside the singlet quench's support, and the multinomial sampler
    # spends a random draw on every nonzero entry, so the shot stream of a
    # singlet run without local rotations depends on which build made it.
    "twist_berry_readout": {
        "berry.csv": "9018a62c87368bd24ce396aeccf397a48f9ecceaa4c9d1b635ff3b8c0258ea61",
        "twist.csv": "335670866e44c23c4c13c48d34d40563b95d24fee2b290bc3a35598f70eab345",
        "manifest.txt": "d389f632046018ceea7ddf1c00d596269988214332470acceca44324b9b5c57e",
    },
    "writers_full": {
        "berry.csv": "131ff86a79ada1e67043c92e21e2376929fd8c754d6e03ed7ae1853301d041c6",
        "entropy.csv": "8092d599837d30ecafd2e7eda7fe0d1c0336ed22a854a56e9b2e1dc7c12765c0",
        "twist.csv": "352f92843610a1c415f93480432823f2b0a38f3dd81d9b999823113c59e789a5",
        "manifest.txt": "1775bb160594253455c012182352cf8c419f4aeb825ea891d4f4ffb5811b2d41",
        "shots/entropy_t0000.txt": "2b0a7fe03ef2f9476b68e1044aebdb07db7ccd993ba02cd0e4bb449e8e979f51",
        "shots/entropy_t0001.txt": "168996f9db411f3fb5fd43431935030865db711ece7bcdcdf2f3e93ccdd5b376",
        "shots/entropy_t0002.txt": "b0de2ddfac23eaa42a6eddda8a027dce8a265521de1f3b52a2ab9950909e58cb",
        "shots/entropy_t0003.txt": "0b8f048a3298fb1a533db91dffc6257f5763c0d442602f7214f9645464d2deb5",
        "shots/entropy_t0004.txt": "3a1f3acf0b1e3ccad347407bb6e809592259165174d84eb29fcff3b74f79b435",
        "shots/twist_t0000.txt": "4efda7d50da0c64d12d9b3866c1a43fca81b08d4a1e7d6faded6e3d44602ed95",
        "shots/twist_t0001.txt": "9650849206cd9707076b10c6f40e9b50a2ce0198ab9749e03a168af87e1364af",
        "shots/twist_t0002.txt": "7e20b6e399e923b26af09873fb2c9bcee80b34901b38418defa6f941dec12ec2",
        "shots/twist_t0003.txt": "d9476571086885a236c28ab69e2152e60a684b7b0d6a0e4a824b34ffa54d7f2f",
        "shots/twist_t0004.txt": "6dca1eb092f20ffa1368fa827ab7ed1eb79122013807f8cdd5a4e22e4c735718",
        "summary.txt": "1348a86a1521cda5a2eacd352355a4e7e011000c1ab8d5992c2be6a7290e03d0",
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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name, tmp_path):
    assert run_digests(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = {name: run_digests(name, Path(work)) for name in sorted(CONFIGS)}
    sys.stdout.write("GOLDEN = {\n")
    for name, files in digests.items():
        sys.stdout.write(f'    "{name}": {{\n')
        for fname, digest in files.items():
            sys.stdout.write(f'        "{fname}": "{digest}",\n')
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n")
