"""Golden outputs: the documents of fixed inputs, pinned byte for byte.

Each case's ``document_json`` text and its ``render_text`` rendering are
pinned by their sha256, and each lone engine value by the integer itself.
The inputs cover finite triples at a small and a large prime, the
``c <= 2`` triples whose top degrees lie in the syzygy window, dense
one-node curves (whose x-steps run on above that window to k_max, where
N has one row), a smooth, a non-reduced and a plus-one curve, both witness
families, an empty and a positive-dimensional triple, and lone ``quotient_hilbert`` / ``saturation_dim`` / ``h1_E``
calls on fresh engines.  A reduced row echelon form is unique, so no change to
the elimination internals may move any of these; a failure names the input.

To re-record after a deliberate output change, print ``_digest(*case)``
and the sha256 of ``render_text(_case(*case)[1])`` for every case and
replace the two tables.
"""

import hashlib
import json
import random

import jsonschema
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
from qci.report import (
    REPORT_SCHEMA,
    curve_document,
    document_json,
    hilbert_document,
    qci_document,
    render_text,
    results,
)


def _node_curve(d, field):
    # a dense curve without z^d, x z^(d-1), y z^(d-1): one node at [0:0:1]
    rng = random.Random(d)
    skip = {(0, 0, d), (1, 0, d - 1), (0, 1, d - 1)}
    coeffs = {m: rng.randrange(1, field.p) for m in monomial_basis(d) if m not in skip}
    return HomogPoly(d, coeffs, field)


def _case(kind, spec, p):
    """The report of one input and its document, as the CLI would build it."""
    field = PrimeField(p)
    if kind in ("qci", "hilbert"):
        texts = [s.strip() for s in spec.split(",")]
        polys = [parse_poly(s, field) for s in texts]
        rep = analyze_qci(QciInput.of(*polys))
        build = qci_document if kind == "qci" else hilbert_document
        return rep, build(rep, *texts, tuple(f.degree for f in polys))
    if kind == "node":
        f = _node_curve(int(spec), field)
    elif kind == "curve":
        f = parse_poly(spec, field)
    else:
        name, d = spec.split(":")
        f = family(name, field, d=int(d)).f
    rep = analyze_curve(CurveInput(f))
    return rep, curve_document(rep, str(f))


def _document(kind, spec, p):
    """The document_json text of one input, as the CLI would write it."""
    return document_json(_case(kind, spec, p)[1])


def _digest(kind, spec, p):
    return hashlib.sha256(_document(kind, spec, p).encode()).hexdigest()


# z * (x - y)(x - 2y)...(x - 7y) over F_32003: tau = 43 at degree 8, the
# plus-one signature's case 1
_PLUS_ONE = (
    "x^7*z + 31975*x^6*y*z + 322*x^5*y^2*z + 30043*x^4*y^3*z + 6769*x^3*y^4*z"
    " + 18871*x^2*y^5*z + 13068*x*y^6*z + 26963*y^7*z"
)

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
    # the three curve-only branches of render_text: a smooth curve, a
    # non-reduced one (a refusal) and a plus-one witness
    ("curve", "x^3+y^3+z^3", 32003):
        "a07ca0f2e9be64a7e13928432b209289b1b203e861756548a475e023485493b8",
    ("curve", "x^2*y+x^2*z", 32003):
        "6c27449f729533c8bb7ba3803069c9343f131c00af2b8108b6dfbfa2b9cc6dc1",
    ("curve", _PLUS_ONE, 32003):
        "0cc8b307d13298da9a6a210e826e75b022e7b464b3b1b582524f51f482303045",
}


@pytest.mark.parametrize(
    "kind, spec, p", list(_DOCUMENTS), ids=[f"{k}:{s}@{p}" for k, s, p in _DOCUMENTS]
)
def test_document_bytes(kind, spec, p):
    assert _digest(kind, spec, p) == _DOCUMENTS[kind, spec, p], (kind, spec, p)


# sha256 of render_text(document) for every case above.  json.dumps writes a
# tuple and a list alike, but the text renderer does not, so a report that
# leaked a tuple into its document would pass the table above and fail here.
_TEXTS = {
    ("qci", "x*y, y*z, z*x", 13):
        "b7d662a62b20cb951ca6fc425e18c9e749242688342ffac2c4d9218ac04c5b62",
    ("qci", "x, y^2, y*z", 13):
        "31c8457d3c137dc44fee42ab8aa087cf48685119557b0545b821af5e49d0eb90",
    ("qci", "x^2, y^2, x*y", 13):
        "567b2d3dbe02028ff5e77f78244d8bd4fdd78309ceeb70bb5b101aa5413dcd7f",
    ("qci", "x^2-y*z, y^2-x*z, z^2-x*y", 13):
        "cda86148736b94654d8958e94ffe68cf202efe5402b8fb92afe7a9691bf8fde6",
    ("qci", "x*y*z, x^3+y^3, y^2*z+x*z^2", 13):
        "ce145df42333b5711e3627ed3626c9faf9ac675d239bc05053a0f198563c913b",
    ("qci", "x^3, y^3, x^2*y*z", 13):
        "f8184cc352e720bda8f49c17cc53044f852c57b76358ebf529c0c82be259cd4f",
    ("qci", "x^2*y, x*y^2, z^3", 13):
        "cbbf29fbc43acae6e69530b7af860137bdd3f14925175782e0bf0e8542b1f276",
    ("qci", "x^2, x*y, y^3+x*z^2", 13):
        "13fd4ca576ea7ad705e0f87082bab259a7a083f8c3ef8ad56ed31a0e6ed6cdad",
    ("qci", "x*y, y*z, z*x", 32003):
        "afec2e4cd503d1521203e095eb5f863eba64179c36516582da687e487267255b",
    ("qci", "x, y^2, y*z", 32003):
        "a0575ba40958a53ecbd35dbfe98d39df78b98bdd189330d4ffd913c5a7de6054",
    ("qci", "x^2, y^2, x*y", 32003):
        "567888a680c4bfb3d30bc4eb56d33dd73e5a7849e8b7b03d2987efec03266084",
    ("qci", "x^2-y*z, y^2-x*z, z^2-x*y", 32003):
        "bacda208a28b0e736b4c6e3155fc9fba158be14a923bef812507c88a6605b884",
    ("qci", "x*y*z, x^3+y^3, y^2*z+x*z^2", 32003):
        "86dd30e504453f1a3926d1744bba5b88421798c5930ef31387926a8f0a6d97d3",
    ("qci", "x^3, y^3, x^2*y*z", 32003):
        "0bf4c45875618f65e133128f49706bd3d2af33ca8326962e1212d759744b690e",
    ("qci", "x^2*y, x*y^2, z^3", 32003):
        "ea2840c7326471902831392159173316382d68d8de4c016cf597c17b5a8fbfbb",
    ("qci", "x^2, x*y, y^3+x*z^2", 32003):
        "524c3509a946ad4c920f1c14839316ed8ca009cb1cec9805a5e8fc7b3589a927",
    ("qci", "x^3-y*z^2, y^3-x*z^2, x^2*y^2-z^4", 32003):
        "bb276137f0ddb6f90ac307229c67645b877e758770d79563da205739429e7233",
    ("qci", "x, y, x+y", 13):
        "ce7dbbb5603aa4c5eb6b9c80d4e5687d05fa76fa2412f755e36ec78f10c7246e",
    ("qci", "x, y, x+y", 32003):
        "fa63d5f4d4ba69c7a62b5c0dc63b1d57526b57a928c2c64503defe2bcdb211b0",
    ("curve", "y^2*z-x^3-x^2*z", 13):
        "0ee3c2bae9f822822f34528a6a37ee010dbaf4c0692cc7a090f918fc44a0fb84",
    ("curve", "y^2*z-x^3-x^2*z", 32003):
        "df3503a2b4613d5467e1fa23a1393c0cdd90a4886f0ef7b65ca64c06ffbf84e4",
    ("qci", "x^2, y^2, z^2", 32003):
        "d40654beb3dd683f99eebabe79381f3e54717257d05d5061a97925ba2d664ebc",
    ("qci", "x*y, x*z, x^2", 32003):
        "f3e4a17cb44be57b9addbf32fb0de03395798cc83221168acfff7fb30350d90d",
    ("hilbert", "x^2*y, x*y^2, z^3", 32003):
        "2f2417de2a1d805d158562ae4be632880ef75db1f2eec066573a12ad288795fe",
    ("node", "5", 32003):
        "29040c0a56af03a2592bc7a99e10bc68f0b3c4fd618562a4601c26df3e523c4b",
    ("node", "6", 32003):
        "d7a6cb1d618538ee820bb3e6e4392151eb849acdd189602921dcadccadb8b13f",
    ("node", "7", 32003):
        "735a6e7174b9e931c62adcca277e9e6ee86ea2f699fb5b20b13b7792400b4926",
    ("node", "8", 32003):
        "5f838a88114faec27ce01c9ce67600a2d5eedd253329e0d32552d493923bd637",
    ("node", "9", 32003):
        "c3dd819cd694aa4156c2fc75b740c71e50029f3ef0231145ec9e6888467bf519",
    ("family", "lines_through_point:4", 32003):
        "ea71dc5d175f9c2482095cd5b8c64996ef0683f2b8eaf52620ca226d3ea9db57",
    ("family", "lines_through_point:5", 32003):
        "3b32bb74d69f570a926c0f47829bbc8578a31f11883088c45cf684012d8fa3a7",
    ("family", "lines_through_point:6", 32003):
        "73dba0eccfc7c076de14acdf9ea5c1cb6fe851ac4d3866cf7acf53fcc83f0b0f",
    ("family", "lines_through_point:7", 32003):
        "23f6b215f3dcae395a07c7b1dba8aab749db2be83859dc493541284a44c98464",
    ("family", "lines_through_point:8", 32003):
        "9171beea1b642d5628827696c1ab36f8bb801286defb94e151358ae9bd77bd3e",
    ("family", "smooth_plus_line:4", 32003):
        "79c70ad39012f7681ee0b0cb5299d609de67f1cbf4e5cfe0b29aeee04f85e675",
    ("family", "smooth_plus_line:5", 32003):
        "178bcee43025ae3c3800b8e0fbd3c43d0a6daddee07861d4c0f0b4456f3edcee",
    ("family", "smooth_plus_line:6", 32003):
        "2d254182ce6ff94283e3f0bfff1a75c07fe60455d3fbcbb942ba4079dea7e8ff",
    ("family", "smooth_plus_line:7", 32003):
        "3923c69e2fb3d5da59f33a4f67ca263c3f8a800fd9d44f76fdea6a0077a014c0",
    ("curve", "x^3+y^3+z^3", 32003):
        "3758aa98b47c3762fbc4cd305673270ce664ff0608b2941a09e207d369825bd2",
    ("curve", "x^2*y+x^2*z", 32003):
        "a1b1e057fd20f3e57a13f9393166252671becc2fdad09d3a8b8005e582a638f4",
    ("curve", _PLUS_ONE, 32003):
        "6f6c36bdc17669498ae349095bf937dd0b36f4e54a7d3195c81ad4acda83410b",
}


@pytest.mark.parametrize(
    "kind, spec, p", list(_TEXTS), ids=[f"{k}:{s}@{p}" for k, s, p in _TEXTS]
)
def test_text_bytes(kind, spec, p):
    text = render_text(_case(kind, spec, p)[1])
    assert hashlib.sha256(text.encode()).hexdigest() == _TEXTS[kind, spec, p]


def _tuples(value, path="results()"):
    # paths of every tuple inside a plain-data value
    if isinstance(value, tuple):
        return [path]
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [hit for key, v in items for hit in _tuples(v, f"{path}[{key!r}]")]


def test_reports_hold_no_tuples():
    leaks = {case: _tuples(results(_case(*case)[0])) for case in _DOCUMENTS}
    assert not {case: hits for case, hits in leaks.items() if hits}


@pytest.mark.parametrize(
    "kind, spec, p", list(_DOCUMENTS), ids=[f"{k}:{s}@{p}" for k, s, p in _DOCUMENTS]
)
def test_documents_satisfy_the_schema(kind, spec, p):
    # the written JSON of every golden input, refusals, curves and hilbert
    # documents included, against the schema that report.py keeps beside
    # its writer
    jsonschema.validate(json.loads(_document(kind, spec, p)), REPORT_SCHEMA)


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
