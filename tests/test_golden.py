"""Golden fixtures: SHA-256 of small `schedule`, `game`, `mfe` and `bounds` outputs.

The `schedule` and `game` hashes were computed with the per-step simulation
loop that the block kernel replaced; the `mfe_report.json` hashes were
computed with the per-type, per-step NumPy loop of `mf_operator` that the
float recursions replaced. So these tests show that a seed still maps to
the same bytes across engine versions, not only across two runs of one
build. The `bounds_report.json` hashes were computed with the price
bisection that the exact breakpoint price replaced; the report depends on
the price search only through q and the upper thresholds. The two p > 0
`bounds` hashes were re-pinned once, when the Gaussian-tail quantile became
`statistics.NormalDist().inv_cdf` in place of a bisection on the normal CDF:
only `tail.n_min_gauss` moved, in its last digits (0.20095544749256833 to
0.20095544749259547, and 0.3617198054866229 to 0.3617198054866718), toward
`scipy.special.ndtri`'s value; every other key kept its bytes. The equilibrium
report holds the mu window, K3, the gains, the residual and the Picard
iteration count, so it pins every bit of the fixed-point solve. The
`bounds-p0` hash and the manifests' `config_hash`es were computed with the
hand-written documents that the record dataclasses' own fields replaced, so
they pin the documents' keys and values, and a p = 0 report without a
`tail` key. A failure here means the output changed: find out why before
re-pinning.
"""

import hashlib
import json

import pytest

from aoi_mfg.cli import main

_SHARED = {"B": 0.1269, "C_W": 5.0, "Q": 2.0, "R": 2.0, "x0_cov": 1.0, "prob": 1.0 / 3.0}
DEFAULT_TYPES = [
    dict(_SHARED, label="stable", A=0.5, x0_mean=6.0),
    dict(_SHARED, label="marginal", A=1.0, x0_mean=3.0),
    dict(_SHARED, label="unstable", A=1.15, x0_mean=-3.0),
]
TWO_STATE_TYPES = [
    {"label": label, "A": [[a, 0.1], [0.0, 0.9]], "B": [[0.1269], [0.2]],
     "C_W": [[5.0, 0.0], [0.0, 5.0]], "Q": [[2.0, 0.0], [0.0, 2.0]], "R": 2.0,
     "x0_mean": [x, 1.0], "x0_cov": [[1.0, 0.0], [0.0, 1.0]], "prob": 0.5}
    for label, a, x in (("stable", 0.5, 6.0), ("marginal", 1.0, 3.0))
]
# the default set with its unstable pole moved from 1.15 to 1.3
POLE_TYPES = DEFAULT_TYPES[:2] + [dict(DEFAULT_TYPES[2], A=1.3)]

GOLDEN = {
    "schedule-sweep": {
        "fig2.csv": "453e591df6f65b043eabd735d0c7ac2ddca6ea7c5080c7f71674ded573de2597",
    },
    "schedule-p0-seeds": {
        "fig2.csv": "2982e58972f2e08ff2dbb7ec2e692d7a0c4c03192273992086bd381574447c43",
    },
    "game": {
        "fig3a.csv": "8b82fe9bce576d16d707c230dff699d29f15caba95b8066fa278c30429b3d304",
        "fig3b.csv": "cfb9f872527bf5c19bbae758124b33e2db1b84502915cb7b60b341c503484b75",
    },
    "game-two-state": {
        "fig3a.csv": "761920f2fe162426dffd99bb52d4aa37806d28c250115de4ce9b3f3a697c5ca4",
        "fig3b.csv": "213bc37923256214e9e95e277fc62b4b070eddffc3e2c84df612082949d22f2b",
    },
    "mfe": {
        "mfe_report.json": "76f7b7780ad34ba6180076a64a5ce3a8a0760fd1115e344d002ecc4d6344206f",
    },
    "mfe-two-state": {
        "mfe_report.json": "bc89f70360c2855503f786e71af9ae38d0bc19cdae81a0c3de38fb852a0583f6",
    },
    "mfe-pole-1.3": {
        "mfe_report.json": "1f425575aae1cc7a633bec93ffad6256e0f23b3a8923194fc22d003173a91a37",
    },
    "bounds": {
        "bounds_report.json": "4bf021688262f74580c42d4e3d6b8bc1a619c8d9e68f5cd6a7dedd5c38e26c5d",
    },
    "bounds-two-state": {
        "bounds_report.json": "964fb17502cde934d3d96cbb0fa5b7232e34e58fd329cc30a88670a93f7b14d1",
    },
    "bounds-p0": {
        "bounds_report.json": "f377cdc44c72d9d7150a2f3fc23dd239495a23cece939f37d36f60937f008167",
    },
}

CASES = {
    # default N-sweep 5..100 at alpha = 25/100, relaxed and MATB on 2 seeds each
    "schedule-sweep": ("schedule", {"N": 100, "capacity": 25, "p": 0.2, "T": 300,
                                    "types": DEFAULT_TYPES}, ["--runs", "2"]),
    # per-seed rows on a perfect channel: adds the max_aoi column
    "schedule-p0-seeds": ("schedule", {"N": 40, "capacity": 10, "p": 0.0, "T": 400,
                                       "types": DEFAULT_TYPES}, ["--seeds", "0..3"]),
    "game": ("game", {"N": 30, "capacity": 14, "p": 0.2, "T": 120,
                      "types": DEFAULT_TYPES}, ["--runs", "2"]),
    # vector states: the noise block is (steps, N, n)
    "game-two-state": ("game", {"N": 20, "capacity": 9, "p": 0.2, "T": 80,
                                "types": TWO_STATE_TYPES}, ["--runs", "2"]),
    # the equilibrium alone: 66, 94 and 52 Picard iterations
    "mfe": ("mfe", {"N": 30, "capacity": 14, "p": 0.2, "T": 120,
                    "types": DEFAULT_TYPES}, []),
    "mfe-two-state": ("mfe", {"N": 20, "capacity": 9, "p": 0.2, "T": 80,
                              "types": TWO_STATE_TYPES}, []),
    "mfe-pole-1.3": ("mfe", {"N": 30, "capacity": 14, "p": 0.2, "T": 120,
                             "types": POLE_TYPES}, []),
    "bounds": ("bounds", {"N": 100, "capacity": 25, "p": 0.2, "T": 300,
                          "types": DEFAULT_TYPES}, []),
    "bounds-two-state": ("bounds", {"N": 20, "capacity": 9, "p": 0.2, "T": 80,
                                    "types": TWO_STATE_TYPES}, []),
    # a perfect channel: no tail threshold, so the report has no `tail` key
    "bounds-p0": ("bounds", {"N": 100, "capacity": 25, "p": 0.0, "T": 300,
                             "types": DEFAULT_TYPES}, []),
}


def _digests(tmp_path, name):
    command, doc, extra = CASES[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)] + extra) == 0
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in GOLDEN[name]}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_pinned(name, tmp_path):
    assert _digests(tmp_path, name) == GOLDEN[name]


# the manifest's config_hash: SHA-256 of the scenario document a run resolved,
# for a preset sweep point, a preset equilibrium and a vector-state file
CONFIG_HASHES = {
    "schedule-preset-N10": (["schedule", "--N", "10", "--runs", "1"], None,
                            "67903f7ec166e307ffd2eab26e6ec57e1993e3c096adef505ba5aafb42785be3"),
    "mfe-preset": (["mfe"], None,
                   "574e0a9325b96dc135ecf69c2cd0f34131a2c223b13f1b6e3633dfa8d035cd03"),
    "bounds-two-state": (["bounds"], CASES["bounds-two-state"][1],
                         "12d2988f46a829c182ba446dc8c854f452951be2e22bbd4bec084977abc72d57"),
}


@pytest.mark.parametrize("name", sorted(CONFIG_HASHES))
def test_config_hash_pinned(name, tmp_path):
    argv, doc, want = CONFIG_HASHES[name]
    if doc is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / f"{argv[0]}_manifest.json").read_text())
    assert manifest["config_hash"] == want
