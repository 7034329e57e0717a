"""Golden CLI outputs: nine commands pinned byte for byte.

Each case runs `swstab.cli.main` in a fresh directory that holds only the
instance files, and pins the exit code, stdout, stderr and the sha256 of
every file the command writes.  The values were recorded before the
switching signal became a per-step sequence; any change in what a command
prints or writes shows here.  Each case also runs as `python -m swstab.cli`
in a fresh interpreter against the same pins: the in-process run shares
its interpreter with every other test, so it cannot see a fault that
depends on which modules a command imports, or in what order.
"""

import hashlib
import subprocess
import sys

import pytest

from swstab import generate_random_instance, write_instance
from swstab.cli import main

# (argv, exit code, stdout, stderr, {written file: sha256})
GOLDEN = {'experiment-seed-7': (['experiment', '--seed', '7', '--trials', '5', '--out', 'exp'],
                       3,
                       'CERT lhs=371368.37518301758 lambda=0 feasible=0\n',
                       '',
                       {'exp/instance.json': '127ef549672c1d3f466ad44854974e09a2172c916eaa5d47c41bef409a3914c8',
                        'exp/norms_000.csv': '8e0dfec2885e05788eb78a9311a1c00df50a3f8120bfc748d707ad5a05a4b8bf',
                        'exp/norms_001.csv': '0627267134c9bab57f38c06ef2b2cbda6e1ec77e4b77bc153e06053adeda849e',
                        'exp/norms_002.csv': 'e28502e75520b2574887f90badfc97e1bb08cd576ef0f8a18041fdefc94d709c',
                        'exp/norms_003.csv': '2d7348b811a3ff6e66cecb06ee6110dea8aab4b6864af61de75f2a0aa38ad2b1',
                        'exp/norms_004.csv': '2ad94ccd8e75426b1dab40d63a78cf28bd178e288cd4e2094f3c5bb0972fb118',
                        'exp/report.json': '40783a40547d607dd29d7c2541072576cb386645020fef501c12b23ce66d9535',
                        'exp/signal.csv': '2c196c0402571aa9cbc2cb6fed9976bf3cf213c193c7b4a30dc8d6bb6272aa32'}),
 'experiment-diagonal': (['experiment',
                          '--instance',
                          'diag.json',
                          '--lambda',
                          '0.15',
                          '--trials',
                          '5',
                          '--out',
                          'exp'],
                         0,
                         'CERT lhs=0.64793222763648151 lambda=0.14999999999999999 feasible=1\n',
                         '',
                         {'exp/norms_000.csv': '71ccffd55a32e80d87abf32e47b194cf3d10a5b906b6b8dfcc6fb1ae21d7395b',
                          'exp/norms_001.csv': 'd9ad1afc3894ffbeb988e88f6dcec0745f50a92228a8dca92ab9815200e4c6bb',
                          'exp/norms_002.csv': 'd50ae424b77fec40def17db28eef1ae0330bd7771bb65b5553f4bac7c5e3101c',
                          'exp/norms_003.csv': 'facc26b83dece316b28718def2b74a34bb568b5a29c4a88f8ec52348c9996386',
                          'exp/norms_004.csv': 'e75277bee1ca93d81da69c76f38527e85a69697976fa3b1aba8c28b8acdf15d6',
                          'exp/report.json': '4da86ab85082e858b33601accf1e0d0e61ebf95befcd62af9f881fbdf50a646a',
                          'exp/signal.csv': '3ced6448a431ff978060632c6665bef066ea075939257ab52c1ae997621e333f'}),
 'simulate-seed-1088': (['simulate',
                         'seed1088.json',
                         '--policy',
                         'alternate-stable',
                         '--partner',
                         '2',
                         '--trials',
                         '3',
                         '--out',
                         'sim'],
                        0,
                        'trial 0: fit amplitude=0.61046481930887209 rate=0.38228225989059578\n'
                        'trial 1: fit amplitude=0.71186692692037867 rate=0.38227252907726839\n'
                        'trial 2: fit amplitude=1.0838667485929674 rate=0.382242370968574\n',
                        '',
                        {'sim/norms_000.csv': '0645a8a0770832bde81017ebc5907303d9e3949519f5e473789dcaaa6b173a2f',
                         'sim/norms_001.csv': '434b99e7d8355d3ffc87e1935cdf78aa01a54e729809f63f1e67603437d4f6ad',
                         'sim/norms_002.csv': '2d5f7944d04a53f23ae056c2b3ffa1e5eead2f3945e8362e69c3efafd36d8450',
                         'sim/signal.csv': '0ad992d347654143ddbf8ccaa3aa1bb9aeec57f52291b29cc33c51cdd20be844'}),
 'signal-diagonal': (['signal', 'diag.json', '--seed', '3', '--out', 'signal.csv'],
                     0,
                     'walk of 50 vertices -> signal of 71 steps -> signal.csv\n',
                     '',
                     {'signal.csv': '1efc60f4de7c1603b48d6ac1c2bb9cf32ce18ad9b8f45b9b632f2d3cd77458eb'}),
 'verify-diagonal': (['verify', 'diag.json'],
                     4,
                     'CERT lhs=0.99999926603109413 lambda=0.36698422055551266 feasible=1\n'
                     'exchange identity residual: 0 PASS\n'
                     'envelope constant: 2.9999977980932822 (exhaustive, basis length 4)\n'
                     'exhaustive envelope check to length 10: max_ratio=2.9999933942846964 (191 '
                     'products) FAIL\n'
                     'decomposition: residual=0 terms=2 (bound 2) PASS\n',
                     '',
                     {}),
 'verify-seed-1088': (['verify', 'seed1088.json'],
                      0,
                      'CERT lhs=0.99999950687605077 lambda=0.1190502817872518 feasible=1\n'
                      'exchange identity residual: 3.4694469519536142e-18 PASS\n'
                      'envelope constant: 3.4365983551836492 (exhaustive, basis length 5)\n'
                      'exhaustive envelope check to length 11: max_ratio=1 (1424 products) PASS\n'
                      'decomposition: residual=3.2988439871262662e-17 terms=3 (bound 3) PASS\n',
                      '',
                      {}),
 'verify-shear': (['verify', 'shear.json'],
                  3,
                  'CERT lhs=840.06379067097271 lambda=0 feasible=0\n',
                  '',
                  {}),
 'certify-diagonal': (['certify', 'diag.json'],
                      0,
                      'constants: M_norm=1.2 C_norm=0.47999999999999998 comm=0\n'
                      'max certified rate: 0.36698458754010022\n'
                      'CERT lhs=0.99999926603109413 lambda=0.36698422055551266 feasible=1\n',
                      '',
                      {}),
 'analyze-seed-1088': (['analyze', 'seed1088.json'],
                       0,
                       'family: N=3 dim=2\n'
                       'all subsystems unstable: yes\n'
                       'stable combination: head=1 tail=2 p=1 q=1 m=1 rho=0.22609353552259273\n',
                       '',
                       {})}


def _instances(directory, diag_family, shear_family):
    write_instance(directory / "diag.json", diag_family, name="diagonal-pair")
    write_instance(directory / "shear.json", shear_family, name="shear-pair")
    write_instance(
        directory / "seed1088.json", generate_random_instance(3, 2, 1088), name="random", seed=1088
    )


def _written(directory, before) -> dict:
    """{path: sha256} of the files under `directory` that are not in `before`."""
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(set(directory.rglob("*")) - before)
        if path.is_file()
    }


def run_command(argv, directory, capsys):
    """Exit code, stdout, stderr and {path: sha256} of the files `argv` writes."""
    before = set(directory.rglob("*"))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, _written(directory, before)


def run_process(argv, directory, env):
    """As `run_command`, for `python -m swstab.cli` run from `directory` in `env`."""
    before = set(directory.rglob("*"))
    proc = subprocess.run(
        [sys.executable, "-m", "swstab.cli", *argv], cwd=directory, env=env, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr, _written(directory, before)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_is_pinned(name, tmp_path, monkeypatch, capsys, diag_family, shear_family):
    argv, code, out, err, written = GOLDEN[name]
    _instances(tmp_path, diag_family, shear_family)
    monkeypatch.chdir(tmp_path)
    assert run_command(argv, tmp_path, capsys) == (code, out, err, written)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_is_pinned_in_a_fresh_interpreter(name, tmp_path, diag_family, shear_family, child_env):
    argv, code, out, err, written = GOLDEN[name]
    _instances(tmp_path, diag_family, shear_family)
    assert run_process(argv, tmp_path, child_env) == (code, out, err, written)
