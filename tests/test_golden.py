"""Golden-byte CLI contract: a fixed list of invocations whose exit codes
and stdout sha256 digests were recorded once and must never drift.

Covers every table kind and every verify suite at its default sizes, plus
--x/--q/--lambda/--family variants, one small mc-check, and one usage
error. Refactors of the exact layers must leave every byte unchanged;
never regenerate these digests to make a change pass.
"""

import hashlib

import pytest

import probstirling.cli as cli

GOLDEN = [
    (("table", "stirling2", "--n", "8"), 0,
     "019a02f9fc8a8f01d193b0c877f68d4952cd7661a27c54ce162bab30813fa32c"),
    (("table", "stirling2", "--n", "5", "--format", "json"), 0,
     "cb49f52b29a164a0bfb21e359265f3e3be378a2b48a4a007d63af9ac15a7c176"),
    (("table", "stirling1", "--n", "6", "--m", "2"), 0,
     "fd8ab0e6483a74b650e454d7fe2438ce923f1393dd440d3b62807d99c3154a85"),
    (("table", "cnn", "--n", "4", "--N", "9"), 0,
     "6f1bd4833d0b312f6fccc90c659b3b43134027ba267e401274d31b582a9c2b7b"),
    (("table", "cnn", "--n", "3", "--N", "2", "--format", "json"), 0,
     "cc763fbf174c9f0024b72e19f68729ea6021d0f3f8c4e2bd27a3d2084b2efd12"),
    (("table", "sy", "--dist", "exp", "--n", "6", "--x", "1/2", "--format", "json"), 0,
     "5118da98d9dff18779cfee5ca95f709ecc6417f57507750b0f538422e6e4ccfb"),
    (("table", "sy", "--dist", "poisson:1/3", "--n", "7", "--m", "3", "--x=-1/2"), 0,
     "4322de2cb6972f21da2a4ded1067eb6761a5fa28d1f8d22f4ed14f759f4cc3ed"),
    (("table", "bell", "--n", "8", "--x", "1/2"), 0,
     "9d06e0ccfb820d8d8adbaabbe5818e9c3feec0de732e13ff761dafee971c9e9a"),
    (("verify", "corollary8", "--dist", "poisson:1"), 0,
     "0b8c46c3fcf554c06615f4733e7f65530e6eb19607df73bc124e645e01c71e59"),
    (("verify", "corollary8", "--dist", "geom:1/3", "--x", "1/2", "--x=-1"), 0,
     "5f3f687b4a3ffb6bc2cc171bd7d2d725cfe0335f404e10beef5b0be3ab01b342"),
    (("verify", "theorem1"), 0,
     "1616ae4843516be451c7b27c256b036329fc8474c722d35909f7a720c06a322f"),
    (("verify", "theorem1", "--x", "1/2"), 0,
     "7cf7b04d1a6ac26ce041815ad3fff9c06f1a47e21220986d5d04b85f7463409a"),
    (("verify", "theorem9"), 0,
     "239e86e4f12dbec66229ac59cae72fc823e2ef835de2100ecbdcc555145eb7dd"),
    (("verify", "theorem10"), 0,
     "62ac80825b03c85bfb12deef85d5ece7252c6738e0db9b37008e751062710815"),
    (("verify", "theorem10", "--lambda", "1/2"), 0,
     "86c5dbba65ef0b9287a5b5652e610d67d1bbc0b69b6feac0d62d5fa44ce7a336"),
    (("verify", "theorem11"), 0,
     "798622cc7ac3f58c64f7c1bee7871d8660f7f98cfd9cfb366c9e7c679e132308"),
    (("verify", "theorem11", "--q", "1/3", "--n-max", "3", "--N-max", "8"), 0,
     "b0f7cd7c7523bb1cba06b9b8debceccda1f7bb1aeb94673311f5d79d6fcc4fc2"),
    (("verify", "theorem12", "--family", "bernoulli"), 0,
     "5b74c55545a84f3cc1ece7f5a567f78ac8607f028acec1f7628bc67e7833f447"),
    (("verify", "theorem12", "--family", "euler", "--x", "1/2"), 0,
     "94e87bf9f7a30c13287728430a8ebd7e6473fa0b85d6c66a35dd9c73c8f9b3b5"),
    (("verify", "theorem12", "--family", "hermite"), 0,
     "9bdd110fd325d3ff7c1b07cac06344d39cb3acf4b4aebf304d2484176f24794b"),
    (("verify", "theorem12", "--family", "moment:exp", "--n-max", "4", "--N-max", "8"), 0,
     "21337fc43ab52ddefb30878c34bdfdcee93fdd86e559c71e0aea112ebbf5ab9d"),
    (("verify", "theorem12"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("verify", "gf", "--dist", "uniform"), 0,
     "b0b03cf1d5e6b6e15c58ac35ce35814c1972da65e953d6b6bce487d30a6ab726"),
    (("verify", "paths", "--dist", "geom:1/2"), 0,
     "47ee9138bf007da4cf7e2ed793ddc6cefe96aec66c80a838607da0f855e43a9f"),
    # the inputs of the verify-routes benchmark at its other laws and signs of x
    (("verify", "paths", "--dist", "geom:1/3", "--n-max", "10", "--x=0", "--x=-1/2"), 0,
     "e33a21c9fd42e30523fd8f36235fa108d6a524e6becdf94fe274b4fa9fc864ba"),
    (("verify", "paths", "--dist", "geom:2/3", "--n-max", "10", "--x=0", "--x=-1/2"), 0,
     "146085d242a5578e2f82b1c38815d7c94a85ca9745b35af0c9124786cd0621f8"),
    (("verify", "bernoulli-classic"), 0,
     "d2fa25eff43ec2153ea983c7fd93a109780edf1bfd47d531c9bef68741583f04"),
    (("verify", "bernoulli-classic", "--n-max", "5", "--N-max", "8", "--x", "1/3"), 0,
     "18012b9bd648f4dc334d466488430101085bfd34739d477ac099e75538ff7e9c"),
    (("mc-check", "--dist", "exp", "--k-max", "2", "--n-max", "3",
      "--samples", "2000", "--seed", "5"), 0,
     "39a9b58434b173906adbeb1c22d15a6156ccf396080e45439a039dc03320a5c8"),
]


@pytest.mark.parametrize(
    "argv, code, digest", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_cli_stdout_matches_golden(capsys, argv, code, digest):
    assert cli.main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
