"""Golden exact outputs: SHA-256 digests of CLI output for fixed seeds.

A change that is meant to leave output untouched (a speed-up, a refactor)
must keep every digest here.  `construct --with-payloads` and the
analytics commands (`sweep`, `bounds`, `ndt`) are hashed whole.
Of the `verify` and `simulate` JSON only the exact fields are hashed; the
float health fields (condition number, residual, symbol error) depend on
the BLAS build and are left out.
"""

import hashlib
import json

import pytest

from cpcshuffle.cli import main

EXACT_FIELDS = ("ok", "failures", "partitions", "slots_total", "measured_dof", "claimed_dof")
SIMULATE_FIELDS = ("partition", "regime", "slots_used", "symbols_per_receiver", "measured_dof")

# (K, r, K_r, t) -> (construct digest, verify digest, verify --ideal --fault digest)
GOLDEN = {
    (6, 3, 3, 2): (
        "d112ca5b30bea8c522f154a56c0e2fdbf9b0c7d57d88bc53bbc4aec812e288e8",
        "361eb5d560931c4b9f79224c80cb96ab0fc43b9141ab2c5c55d9dea4fc83ccda",
        "707a0be87f0f76c39b17521d2090b498c5350d3b651e969a73b7f0bb70b38ef0",
    ),
    (9, 3, 6, 2): (
        "7dbc34912c71c9d78022726349f5239219dee12f3dac024d34f9797d8d45171a",
        "6a9552081b0bf3dcd2e6be330207517437945ab737b2c1fa7fc9ac353e127673",
        "320b514cd735d3adf3defe57dcabb17f0e40ac8bdedb2b04d090a5171819c999",
    ),
    (8, 5, 4, 2): (
        "6eab00cbbd32f0b2986999a62faa070df84ab9035336bd6ec8c499d18fec18b7",
        "c3c9d8962468bcf9381bbb179a48d52102a65b4bd22b9e4d89eea72029111cf9",
        "e1df381b52f46b1c3a704ed578ab1b704d70c19d704383a6de461b3151c64816",
    ),
    (8, 2, 5, 1): (
        "33dd21692f907bff252c1a01b44aa8a3d22ac7bcae7725d0639acceed478b241",
        "0ecabcd5129239016efe185773674304f850631d26d53f92c0a971d66a736ad8",
        "54f6deed8c2b9db73235da3cebbf6f1d3a6718c2874b3dfc0375a1a9f4a87787",
    ),
}


# ((K, r, K_r, t), partition) -> digest of the exact `simulate` fields
GOLDEN_SIMULATE = {
    ((6, 3, 3, 2), 1): "f77c3c7e473a03988e353c16c1fd9817124d1a43ce1a61d1ea0660941d63c29b",
    ((6, 3, 3, 2), 2): "caaf234611fd9bfa16604347a167f92b26c94579afaf0d0b3224c043a3a81002",
    ((9, 3, 6, 2), 1): "9a7897b7258985df7b40ac05063ecf34a4ed603fb9e6ba26bf6bae61a3dc9e59",
    ((9, 3, 6, 2), 2): "16d2b15b757a8b7751d3e7865dae2124aaa70649b0d7a4e373a59ff1565ee922",
}

# analytics command -> SHA-256 of its stdout; the sweep and `optimize`
# digests are the benchmark's reference digests of the same bytes
GOLDEN_ANALYTICS = {
    ("sweep", "--preset", "fig2"): "b97f08c8b6afaee9d4d763f3ecf8e4d58d3ec1341e9da0f11e4c4c7b05e4d8ba",
    ("sweep", "--preset", "fig3"): "fcd3a29e26629669b8386d01aa00d54abfb71ddfdef0938c47ffabb3c96917ab",
    ("sweep", "--preset", "fig4"): "6489f2a2e9c4f9aa563cd87ce470c376bf2f745e147e22e70d2dde1ac5b96fc9",
    ("sweep", "--preset", "fig5"): "fb095d800b898c7e8ca224537850f58b5997e46253a296488ce0635b9bf6ff9b",
    ("bounds", "--r", "5/2", "--K", "40"): "983b1be7e502115eddca3ffb55f558598b937d9671f50f7957a55fa878c0b298",
    ("bounds", "--r", "3/2", "--K", "2"): "0ab3b92d61ebcfcb3b1392884f6e1100a35ef9814768d354d4612b0505405e10",
    ("ndt", "--r", "7/3", "--K", "12"): "bd6a76fe9b5aca663aa4deb28da330a2d0b54b384ec80b01e5caa9480d3ce6a8",
    ("optimize", "--K-max", "40"): "1379968e5f94d60f5b622740ac570527dc441805332933d873a495dbeb37064f",
}


def _flags(K, r, K_r, t):
    return ["--K", str(K), "--r", str(r), "--Kr", str(K_r), "--t", str(t)]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _exact_digest(capsys, argv, fields=EXACT_FIELDS) -> tuple[int, str]:
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    exact = json.dumps({k: report[k] for k in fields}, sort_keys=True)
    return code, _sha(exact)


@pytest.mark.parametrize("instance", sorted(GOLDEN))
def test_construct_dump(capsys, instance):
    assert main(["construct", *_flags(*instance), "--with-payloads"]) == 0
    assert _sha(capsys.readouterr().out) == GOLDEN[instance][0]


@pytest.mark.parametrize("instance", sorted(GOLDEN))
def test_verify_exact_fields(capsys, instance):
    assert _exact_digest(capsys, ["verify", *_flags(*instance)]) == (0, GOLDEN[instance][1])


@pytest.mark.parametrize("instance", sorted(GOLDEN))
def test_ideal_fault_exact_fields(capsys, instance):
    argv = ["verify", *_flags(*instance), "--ideal", "--fault"]
    assert _exact_digest(capsys, argv) == (1, GOLDEN[instance][2])


@pytest.mark.parametrize("instance, partition", sorted(GOLDEN_SIMULATE))
def test_simulate_exact_fields(capsys, instance, partition):
    argv = ["simulate", *_flags(*instance), "--partition", str(partition)]
    digest = GOLDEN_SIMULATE[instance, partition]
    assert _exact_digest(capsys, argv, SIMULATE_FIELDS) == (0, digest)


@pytest.mark.parametrize("argv", sorted(GOLDEN_ANALYTICS))
def test_analytics_output(capsys, argv):
    assert main(list(argv)) == 0
    assert _sha(capsys.readouterr().out) == GOLDEN_ANALYTICS[argv]
