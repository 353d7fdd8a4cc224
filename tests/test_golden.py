"""Golden outputs: the documents of fixed inputs, pinned byte for byte.

Each case's ``document_json`` text is pinned by its sha256, and each lone
engine value by the integer itself.  The inputs cover finite triples at a
small and a large prime, the ``c <= 2`` triples whose top degrees lie in the
syzygy window, dense one-node curves (whose inverse-system chain starts near
that window), both witness families, an empty and a positive-dimensional
triple, and lone ``quotient_hilbert`` / ``saturation_dim`` / ``h1_E`` calls
on fresh engines.  A reduced row echelon form is unique, so no change to
the elimination internals may move any of these; a failure names the input.

To re-record after a deliberate output change, print ``_digest(*case)``
for every case and replace the table.
"""

import hashlib
import random

import pytest

from qci import (
    CurveInput,
    HomogPoly,
    PrimeField,
    QciInput,
    analyze_curve,
    analyze_qci,
    family,
    h1_E,
    monomial_basis,
    parse_poly,
    quotient_hilbert,
    saturation_dim,
)
from qci.report import curve_document, document_json, hilbert_document, qci_document

def _node_curve(d, field):
    # a dense curve without z^d, x z^(d-1), y z^(d-1): one node at [0:0:1]
    rng = random.Random(d)
    skip = {(0, 0, d), (1, 0, d - 1), (0, 1, d - 1)}
    coeffs = {m: rng.randrange(1, field.p) for m in monomial_basis(d) if m not in skip}
    return HomogPoly(d, coeffs, field)


def _document(kind, spec, p):
    """The document_json text of one input, as the CLI would write it."""
    field = PrimeField(p)
    if kind in ("qci", "hilbert"):
        texts = [s.strip() for s in spec.split(",")]
        polys = [parse_poly(s, field) for s in texts]
        rep = analyze_qci(QciInput.of(*polys))
        build = qci_document if kind == "qci" else hilbert_document
        return document_json(build(rep, *texts, tuple(f.degree for f in polys)))
    if kind == "node":
        f = _node_curve(int(spec), field)
    elif kind == "curve":
        f = parse_poly(spec, field)
    else:
        name, d = spec.split(":")
        f = family(name, field, d=int(d)).f
    return document_json(curve_document(analyze_curve(CurveInput(f)), str(f)))


def _digest(kind, spec, p):
    return hashlib.sha256(_document(kind, spec, p).encode()).hexdigest()


_DOCUMENTS = {
    ("qci", "x*y, y*z, z*x", 13):
        "aa3f959299182fc5fe4d2a3d20e6f7e7bbcea61229cf4cb61e5e965cf6843200",
    ("qci", "x, y^2, y*z", 13):
        "5724353208f7c467290bcd754a5974868495f12f67b967503206ee799df41e97",
    ("qci", "x^2, y^2, x*y", 13):
        "e2166f902db08f50249954406f5846f11511e74060136092acfd5daa5f5f6a6e",
    ("qci", "x^2-y*z, y^2-x*z, z^2-x*y", 13):
        "7094149dedd7a657bf9be7ac6bc23fb821f7cd1f009a837ac17c063464f7bbd2",
    ("qci", "x*y*z, x^3+y^3, y^2*z+x*z^2", 13):
        "9e8024fd5601a2dae0d1206f722c7240bde69b03360dc6572765495ddcb2d4c4",
    ("qci", "x^3, y^3, x^2*y*z", 13):
        "ff4db601475aa68248142e49e996e875aafa8bf6a684fd7975a012c3cf1b64fc",
    ("qci", "x^2*y, x*y^2, z^3", 13):
        "3a0287d4cfb467b65223ac0c81755f0c910b11c469abaaabaa97d7d9c64f9508",
    ("qci", "x^2, x*y, y^3+x*z^2", 13):
        "196fa020a9e1cae2c86f3d7f2c9cebef19709f8d86c231ec9cb8c4cf35ef6136",
    ("qci", "x*y, y*z, z*x", 32003):
        "893fbd3d23228796ffe6ede6aa880cb82a3b068bd3e0d5c66c1662fa5ce4f40d",
    ("qci", "x, y^2, y*z", 32003):
        "4e7e44c4b86882180de3befac15448c77ecdfe805e0286e2d77c9faf2fd224ff",
    ("qci", "x^2, y^2, x*y", 32003):
        "218ce4fe8b7630c77ffe5107d6ee5bdd92a5afe89da7b979ec33b333037a23ca",
    ("qci", "x^2-y*z, y^2-x*z, z^2-x*y", 32003):
        "244909a21737cb0d87ee3cfb33b19df6d9049dbd9e8051ba9eb6af187828912b",
    ("qci", "x*y*z, x^3+y^3, y^2*z+x*z^2", 32003):
        "9a61b272a68fe1613a5fc0850ae191e39d27801e223e309d391f9ed301cc2a75",
    ("qci", "x^3, y^3, x^2*y*z", 32003):
        "00557bbc94ea743724cca73b9a87bc62cba81b5946b981d5b595962c5a398f13",
    ("qci", "x^2*y, x*y^2, z^3", 32003):
        "907c4d108a00b1d5aea23b2c435a43aabc1d1ea5f35f485762c732277c283868",
    ("qci", "x^2, x*y, y^3+x*z^2", 32003):
        "728c4e4380e2208dd09c0b9585a3b903c2efc68381d1ecf4837aab2c59c98cac",
    ("qci", "x^3-y*z^2, y^3-x*z^2, x^2*y^2-z^4", 32003):
        "8050f5823dd47e75e4ed53d5ce210c48a161c4f9f390289188ab40f4b4b7cc68",
    ("qci", "x, y, x+y", 13):
        "b57c51db1d1285db43a6fcf5eecc39a981b0f6cf87b241d4c8f4d311f57ebe98",
    ("qci", "x, y, x+y", 32003):
        "c1706a41a9b3ff0c6cda90e4b10971a1f18be403b3582221c7d73dca86f6ff9d",
    ("curve", "y^2*z-x^3-x^2*z", 13):
        "01730f80f727db5f092ecf798ff88ee6a4a7b46c12d87d173e13485e9969dbbb",
    ("curve", "y^2*z-x^3-x^2*z", 32003):
        "d3f004457882bbb9cec7bc8912432df8a76456f5ce7b170b3f9df7fd2496f756",
    ("qci", "x^2, y^2, z^2", 32003):
        "a53d4051a7e1898ccca656ae7f994aba69b90ed59d3dba61d3e142669cc26b8d",
    ("qci", "x*y, x*z, x^2", 32003):
        "f4e86451f0d7d9cda0928faf1f58fa53afa8709cac4cbc809c5ba7dc0574258b",
    ("hilbert", "x^2*y, x*y^2, z^3", 32003):
        "dd8c61aded80aa72213a62c16229927a59307028acaf23a45302b2ff02af9b18",
    ("node", "5", 32003):
        "2b9af24548ba38ca03840e7aeafa8bf1d95b1b521c0b12658f3da5816bc3d50e",
    ("node", "6", 32003):
        "a82de94184d8a89d49c293b8e61152c8b8c8f0dc6d6b3c00be4518d58451759a",
    ("node", "7", 32003):
        "084e5e08836b9004b6ad5b1a99e580db426b1ab9daa82e78fea649e45c82e4a3",
    ("node", "8", 32003):
        "d39a95b12caf426da36e360fb341758f5811bb042dbd8c8e8ac490e125f04a3f",
    ("node", "9", 32003):
        "6f51727dedb789ffd28bb04dd69a2590b4a4227cc49eb3c89a20076a1aa3e06d",
    ("family", "lines_through_point:4", 32003):
        "4d273b767f03ba96e9f2dba71a3150ba578640995869057d634598f847932b03",
    ("family", "lines_through_point:5", 32003):
        "2e87d0c2c839b9a9ac8b7f7820e4f0ceeb32c5376197f8c1389b6ede6e19ee5e",
    ("family", "lines_through_point:6", 32003):
        "39a07ed600365bb7517b77506024bd07e900cecefa3a33bcd7b4984f090b228f",
    ("family", "lines_through_point:7", 32003):
        "5857f07ab00821f5d2d595e732b308ea28598b7bc30c409ccc8be6a5e597530a",
    ("family", "lines_through_point:8", 32003):
        "a54e7c3f8a9ee31629edd238908e4df8d7d1376924f7376038743db49af614fa",
    ("family", "smooth_plus_line:4", 32003):
        "2270e07bf5bcd37216c08eb3fd49cacabe2ee34f49f86c966012438ceb73ff04",
    ("family", "smooth_plus_line:5", 32003):
        "8631d4927f5534f78ab4cdf78191df70b10462e53d7be4f07d6837e83dcc563a",
    ("family", "smooth_plus_line:6", 32003):
        "c23db484f93a55d165e8cb4fce24ccc2dd3ef951aa8a0b256db0e24630e8b3c0",
    ("family", "smooth_plus_line:7", 32003):
        "f18cffd1ba9128d0202337a2b7f851a829ad35bd9af70c508668bb3b2943ebde",
}


@pytest.mark.parametrize(
    "kind, spec, p", list(_DOCUMENTS), ids=[f"{k}:{s}@{p}" for k, s, p in _DOCUMENTS]
)
def test_document_bytes(kind, spec, p):
    assert _digest(kind, spec, p) == _DOCUMENTS[kind, spec, p], (kind, spec, p)


_LONE = {
    ("quotient_hilbert", "x*y*z, x^3+y^3, y^2*z+x*z^2", 2): 6,
    ("quotient_hilbert", "x*y*z, x^3+y^3, y^2*z+x*z^2", 9): 6,
    ("quotient_hilbert", "x*y, x*z, x^2", 6): 7,
    ("saturation_dim", "x*y*z, x^3+y^3, y^2*z+x*z^2", 2): 0,
    ("saturation_dim", "x^3, y^3, x^2*y*z", 4): 8,
    ("saturation_dim", "x, y^2, y*z", 1): 2,
    ("h1_E", "x*y*z, x^3+y^3, y^2*z+x*z^2", -2): 0,
    ("h1_E", "x^3, y^3, x^2*y*z", -1): 1,
    ("h1_E", "x, y^2, y*z", -1): 1,
}

_LONE_FNS = {
    "quotient_hilbert": quotient_hilbert,
    "saturation_dim": saturation_dim,
    "h1_E": h1_E,
}


def _lone_value(name, spec, arg):
    field = PrimeField(32003)
    Q = QciInput.of(*(parse_poly(s.strip(), field) for s in spec.split(",")))
    return _LONE_FNS[name](Q, arg)


@pytest.mark.parametrize(
    "name, spec, arg", list(_LONE), ids=[f"{n}:{s}@{a}" for n, s, a in _LONE]
)
def test_lone_value(name, spec, arg):
    assert _lone_value(name, spec, arg) == _LONE[name, spec, arg], (name, spec, arg)
