"""The plus-space solve pinned byte for byte, and held against an
independent sympy route.

The digests are SHA-256 of repr((pivots, nums, dens)) of
plus_space_basis(k, 200) and of repr((nums, den)) of cohen_series(r, 200):
a change to how the plus conditions are solved must leave every basis and
every Cohen-Eisenstein series exactly as it was.  The oracle builds theta
and F_2 as sympy polynomials, forms the graded rows theta^(eps + 4j) F_2^b
truncated below q^length, takes the left null space of the forbidden
columns and brings its span to reduced row echelon form with sympy's rref.
"""

import hashlib
from math import isqrt

import pytest
from sympy import Matrix, Poly, divisor_sigma, symbols

from plusforms import _cache
from plusforms.cohen_eisenstein import cohen_series, plus_space_basis

BASIS_DIGESTS = {
    2: "69629597ca97dc67cb934bf4ed92a0a3af5674f6dd5268f93cfbfd4f9109c9b4",
    3: "af23e269ddd881484ee69ce292a75738a4f6982a06a67a131aef8a7a611c8670",
    4: "e29016d168f7936a895bd1c325fd89c9a0ba25c1c374153a25dc502d8224f95e",
    5: "91a553655638a6a2e796b184fef0724c5f980710e4ca632c3be89147a98bb8f5",
    6: "6bf59138ad294d540d25c00dc9f0f3ba95cea9df605579abdd28d985a0c6408c",
    7: "769bd90449c144dcc15d933f9ad7ec2e864aba6d89eab8a4b2f178983467ba29",
    8: "56197f0935cb411d14982b92d6661a5ac7ad034d90adff30ef1043e79a3aa0d0",
    9: "0f26d9bef4285c7d7b154e2be60b14ed428a2f6988b6ab776b4c2ff6896f58ce",
    10: "5c1cdea8a6cb45ba4014c0096e419a3201f698c8463a1e48caf7b5acb9342ea2",
    11: "9394d8e547a6ec2462c72931fab6866ef95ab40ef516434ea516e52f6df3f37c",
    12: "21531457f8e3dba1f85170bd768ca8a2fd28897f5af9dea19860452d531d8e17",
    13: "78fb12a036490a71f5107098b77b3f5bc446cae318a12c0502317d9eb31fc27e",
    14: "b48d14b311551c9fccb4f34e1d43b09f396e485b3a0958e1efe1187a537e32b9",
    15: "857a6d587bdbf72d37a398415afbc3f36922ef33fc88f0b1b6d617d84f369a49",
    16: "a46aedd423a120808d5b9b66197728904c1f1f8fade7436958329e2daabe0bfc",
    17: "dbfdadeca3b9639c93014b75fc65dcc5b8e2f8a4e447a4d738c94bcb7640f087",
    18: "b3ad00bcec99d49559ecb242493b517d3c8e8879859ea37901b7c5bbb073d4fc",
    19: "03a3cc22d45a55eb84dce5b3869921495132064d7380761fc3f5762fc603e2fc",
    20: "51dffadd587cf85633e8645e1e7fe225bf196e9a0f476e913b0f84b0ca9f2c78",
    21: "14592051edb4af5627f8a427ab06c9e49c36773d6e56a3b4a8d81e41418a3059",
    22: "41d300d4fa32401e4175979c1f7f8e127a1f66e36c0b99feec9a10c54b7f1249",
    23: "9c0565c5b34c94dc9dd0fa07d50d9be782e249db0f7c1d16ae1d4e60e0f5106f",
    24: "869c98db41cd68d4ff48648ad508fb2dfb3b1bbd5d03c292526d17dfe52a7ab8",
    25: "10326ef2f6454217efd6c90c968bb18fa463e471a0873243e1def20d365a4395",
    26: "06a41253930ec0407821883ae2acd8622874d37d7cc131fb1489930fe820bc05",
    27: "9cc2fe5d1e93bcee1ff492077a740f7ab885ba68c6a72f076f64ba2e245a6427",
    28: "37a70ba0294354a3631a582ad7e08fb0c6776e9552c8dfb8c16e0d59b94466fd",
    29: "30a1a366cb1b4d11885961005153ffad8c11a3e8bf4ef799462fa8c9e0d14959",
    30: "3cf3ad149e0a2854c714d839ab264dc7e2a99125a897977a526a4503b399a118",
    31: "b2cf9ac5818e0ec1fda05e7248a8a7072c40b6cc0767c24dac19831a6c991150",
    32: "82f8f126198ae83451c4b96f7ec627ad6bdc03a638604812e758dd8c98a81828",
    33: "726253983324c3692d772d712f5e2f038b3d29ea30786a36c0e44bd4f13c1a80",
    34: "9a5eb840d475be921b88c58a9a828d8efa307f008d95bdeaf7bdaab999412488",
    35: "8a354b2f01c55d6152c6b15b5e116cb7c96ffa9c5dcad85e2aedf9ebe6229d2d",
    36: "a542280c510f1e423ea7407851a96f455984e1417eb12a444cd866fbd94fbdb3",
    37: "8e24caa3695168aef1c44793065414413637c0e230e9f9fb022ffa6d6554c91d",
    38: "a9e834b8769a9bb2f78e65623de42c2d0078161030c7d2a42e2dd9081f70290a",
    39: "8939836cb775f1609e78f7569c4d5664f53719345973f7d46cb6e2234acf7bfc",
    40: "d5aa8ad02d8ab076f56647404ee4beb681b8f2b31ce562a53bd4f9b3abdc745e",
    41: "cf1b2321c36f7872bd2f5534af80dcf412ad7ff48d90bd441c5f9f1b643e79e9",
    42: "25ad54334068f30d1151484365ce43b2873e1d0c3d0c9b44c19bbd7a592e6aff",
    43: "04e262d6ec193dfa6d2e4f33a66139b8ccdd017ffab37feab7f79c577a692d34",
    44: "1a77d3c0a5392e671130f3af37c0470ba1668e89f656c9aeb2851462e771a664",
    45: "79c5a1d332734eb29bb23f4c4124aa9c165df1fdb217c8d953667972db8f9b86",
    46: "6b1c49f8c0a1eb67b2fcaaf5e8734f9a0bb6e2c779c4fce83099d8acd74b63d8",
    47: "077c4af18805bd405ed1b2d29243233890b25159ebf9776078443d578a002145",
    48: "f909ff93822df65961b3ae64f616e48aa84f52b0d2e968340abd50f540400c05",
    49: "e26c6a30d2f7a37423f5fdd92bc4be3a328b5b2c3df057958a83a904ad93c151",
    50: "a1549eac766480c2fb35de189ef7f66bce914b6d4c9b63f02e1f93c4366f6c51",
    51: "e5cf7eabe33dce9b451b31140e36631ca2c9b664087b4b4688423831dfb92354",
    52: "15ef18ffa4cd3014180c5bcc2eb284b402775dcd58cce24425a5ed60df4c6a3b",
    53: "806c188095189c3e322b0ff3ed491980cf3c0fea27c7cb39ada3ac9b728f988b",
    54: "fa5f47b2db6b525b78aabab83b9228e43ebc0164a5c6cf0bc394ad8d9ebb4b17",
    55: "d6b0d984b0cb9bace6969e3ddd489c35dda60713421550c5c16adf0aacb7063f",
    56: "197a7ad8bde6ecb963e345b1d400a70bbd2ba3fc0bae4e88e479d60a5ab7015c",
    57: "8e4f81a031adba06df9f5b4385a330f011378fbcde8138de5f1a6d0b643cc9b1",
    58: "2a19b4ade77f66318186bae3d5d012a2ba98eab35734446ab52824514f79a70d",
    59: "c6b366c622012a7e573d5065ada4a9417b426cc87320de69e75c22ea263abce4",
    60: "dece3236628fbedca1b20cfcf21459923202bf868c9102011143880087a3634f",
    61: "a99fb46ccffff8c1479a954cacde3d4b26dc6729e554596998b65671a54a800d",
}

COHEN_DIGESTS = {
    2: "fd5eb79578a8fae278c1dcef2b524043f4a41e8977a48617056f44c751ce4381",
    3: "a97ec416bce92187e211d51ad5379d474e6bb34e919819df81789bc209c5cced",
    4: "6a900e4f207c52f22d6a35a87d84e0a6a2162a7dcb1a155bde43107e81db5448",
    5: "dd4712f81b3748af1b62ca67c2755feb49a2a13b060340c552fcec1736f55f35",
    6: "60eebabd935ea8dee30363ef0536f6d4ef363fef3be1c820b60021bbc1af44ee",
    7: "8673fb7e523c564062312162736678607f614402eda3d1bfd4fb6fba1f757672",
    8: "61c6d7840ed87b8ffed3db87c39ea319d45e21f02aa4678cf233ae5abc08f0ad",
    9: "2eb9b62b8183cf13ab313f02d8ac1e99f73d082336722075d62bc16ea2f6baeb",
    10: "40037dde8441810b1a9350161240247d375c898109a292416a908e71e13633c5",
    11: "d2d57fdcb5b6b424f137ff706eb0e1acb65d2581f90322f6d50770ca508472b1",
    12: "909a186975c28d4695be9682b34213ab3ca48f62cf7a41c14a3784a25372f28a",
    13: "62a90bac5599344e0a6e084556887a96f5df17ee6383ab1da7438e8f7a4df941",
    14: "1a07c5518106f5a77341b963e8044d905d32c7d457787fa141c5f525fd77d140",
    15: "125ad28fea06ea1925e5cf1a931f66767920a08fc8c388aea45cb8bb8d212ebb",
    16: "24495e9a820b8dac212bb6a131de868becbc8a781612a0c2e72bea8a0e89a61a",
    17: "47b24f925f9e582f8791463baf9c7e5864c38f9037fad7183a012d57da03b3ba",
    18: "f57ca842849d0f668d8dfde57d9ec88e1caa3774755f703a96de1d2dfa47c6b3",
    19: "d10cdb06b19a4cdeabbc83dde76a894a19bffb2bbc4077a88d085fd9e2bead45",
    20: "bf7271e1efc9c0c8fad2484dc2fddca20c36440abb5c6058a38f3c3346359c58",
    21: "a524e8da8ae149ac4c340fa43a308c34e245cb4884a915cd8719d7b706ef1ffd",
    22: "ae6476b2fbfe03bc43872de94633f9db88c4c388603dd3640e8a33b76b19ddf8",
    23: "cbfea719d719831526d8e7ca94b40ae43f4730f1872472595bb346bdf62b532b",
    24: "a927d254ca9c969e3d606dd2d8f51def524c9c4f9b07a53b4a35901ebc993655",
    25: "795c567affa5123b06a26482e041b4fb6f0a613ca82d3566c0d85a3a3c898a56",
    26: "77fa04578882ab7d7cb23fe7282f0c6883459cd98e827e7899a0d74837f3929b",
    27: "9b839a64eed03e67eb8f7e2e49918d667370ace65b8fc682ee284163d53cb52d",
    28: "1224d17757b52524f0f27351ad0186a9425c97e3dab192cd88e2186cf2ac973c",
    29: "6a70f0f7d8a1e74c208c6c20ee9ca3be9a0d316baceddf782b09e2de330e54d3",
    30: "05e234025ae3ea6dbe6b04409225d451af717f0d2cad20174f2d7983932d1935",
    31: "9bbdc41a5cca2bf855ce5a955c6d93dbb15e5bec388ab672a0304b2afe062674",
    32: "48bbadbde112c4a537b16fff0400b8c5a80bbb04b0257568e83ad30d73031b04",
    33: "91f2b966148637149cdbe470c927a3922a9cd99d722b1e3a8fa1936f9bdb79d2",
    34: "48b15863dde3bd817cf12ec882306010eb2245af6e8e5b49581260a6dc03aa81",
    35: "90ca726635e79100ab8890b203fd55eac84e901446b9b2dab5fba46d6e7a18e4",
    36: "c29ba5a64178f4c62deee0f2280437325ba68808e176194200333a2d19a32d38",
    37: "47212296913da5d44c416078ea044bd008c91610c1973e1998d6089f0b73b7e8",
    38: "27c3448204f2a842bac489af5494885d697f42702803bb0fef6a215d0c523a20",
    39: "e9832a8b8b97c202676499795e12b7d757de73953211a474faf42ff85c6792a6",
    40: "4de20f8c0487a30f66dcdbbca81c21b321951213e1a709796c4b6dad20e09b0d",
}


@pytest.mark.parametrize("k", sorted(BASIS_DIGESTS))
def test_plus_space_basis_is_pinned(k):
    basis = plus_space_basis(k, 200)
    key = ([n for n, _ in basis], [form.series.nums for _, form in basis],
           [form.series.den for _, form in basis])
    assert hashlib.sha256(repr(key).encode()).hexdigest() == BASIS_DIGESTS[k]


@pytest.mark.parametrize("r", sorted(COHEN_DIGESTS))
def test_cohen_series_is_pinned(r):
    _cache.clear()
    series = cohen_series(r, 200).series
    key = (series.nums, series.den)
    assert hashlib.sha256(repr(key).encode()).hexdigest() == COHEN_DIGESTS[r]


q = symbols("q")


def sympy_plus_space(k, length):
    """Pivots and rows of the reduced echelon basis of the plus space below
    q^length, from sympy polynomial arithmetic and sympy's rref."""
    cut = Poly(q ** length, q)
    squares = range(1, isqrt(length - 1) + 1)
    theta = Poly(1 + 2 * sum(q ** (n * n) for n in squares), q)
    f2 = Poly(sum(divisor_sigma(n) * q ** n for n in range(1, length, 2)), q)
    top, eps = divmod(2 * k + 1, 4)
    rows = []
    for b in range(top + 1):
        product = Poly(1, q)
        for factor in [theta] * (eps + 4 * (top - b)) + [f2] * b:
            product = (product * factor).rem(cut)
        rows.append([product.coeff_monomial(q ** n) for n in range(length)])
    graded = Matrix(rows)
    # (-1)^k n = 2, 3 mod 4
    forbidden = [n for n in range(length) if (-1) ** k * n % 4 in (2, 3)]
    null = graded[:, forbidden].T.nullspace()
    reduced, pivots = Matrix.vstack(*[x.T * graded for x in null]).rref()
    return list(pivots), [list(reduced.row(i)) for i in range(len(pivots))]


@pytest.mark.parametrize("k", range(2, 21))
def test_plus_space_basis_matches_the_sympy_route(k):
    length = 4 * ((2 * k + 1) // 4 + 1)
    pivots, rows = sympy_plus_space(k, length)
    basis = plus_space_basis(k, length)
    assert [n for n, _ in basis] == pivots
    assert [list(form.series.coeffs) for _, form in basis] == rows
