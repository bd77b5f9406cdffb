"""SHA-256 digests of the geometry layer and the Hodge symbol, pinned.

The digests were taken from the hand-looped construction that the
``tensor``/``poly_from_monomials`` helpers replaced; any change in a value,
a truncation order or a term set changes a digest.  Values are serialised
with ``poly_to_dict`` for polynomials and ``str`` of the rational parts for
scalars, so the digests do not depend on how a scalar renders itself.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from curlasym.altderiv import hodge_symbol
from curlasym.configs import random_bianchi_config, random_config, unit_config
from curlasym.exactpoly import GaussianRational, TruncatedPoly, poly_to_dict
from curlasym.geometry import (
    build_metric_jet,
    curl_symbol,
    d_delta_symbols,
    transport_jet,
)

CONFIGS = ("c1", "c11", "c17", "seed1", "seed2")
TRANSPORT_TAGS = ("origin_to_y", "y_to_origin", ("y_to_tau_y", Fraction(1, 2)))
MJ_FIELDS = ("g", "g_inv", "rho", "rho_inv", "gamma", "riem0", "driem0")


def _config(name: str):
    if name.startswith("seed"):
        return random_config(random.Random(int(name[4:])))
    return unit_config(name)


def _hodge_config(name: str):
    """hodge_symbol needs Ric(0) = 0: random inputs come from the Bianchi class."""
    if name.startswith("seed"):
        return random_bianchi_config(random.Random(int(name[4:])))
    return unit_config(name)


def _ser(value):
    if isinstance(value, TruncatedPoly):
        return poly_to_dict(value)
    if isinstance(value, GaussianRational):
        return [str(value.re), str(value.im)]
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_ser(v) for v in value]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    raise TypeError(type(value))


def _digest(value) -> str:
    text = json.dumps(_ser(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def layer_digests(name: str) -> dict:
    """Digest of every pinned geometry-layer value of one configuration."""
    cfg = _config(name)
    out = {}
    for order in (3, 4):
        mj = build_metric_jet(cfg, order)
        for field in MJ_FIELDS:
            out[f"mj{order}.{field}"] = _digest(getattr(mj, field))
        out[f"mj{order}.e_mixed"] = _digest(mj.e_mixed())
        out[f"mj{order}.d2gamma0"] = _digest(mj.d2gamma0())
    mj = build_metric_jet(cfg, 3)
    for tag in TRANSPORT_TAGS:
        tj = transport_jet(mj, tag)
        out[f"transport.{tag!s}"] = _digest((tj.z_vector, tj.z_covector))
    d_sym, delta_sym = d_delta_symbols(mj, 3)
    out["d_delta"] = _digest((d_sym, delta_sym))
    out["curl"] = _digest(curl_symbol(mj, 3))
    if name != "c1":
        out["hodge"] = _digest(hodge_symbol(_hodge_config(name)))
    return out


PINNED = {
    "c1": {
        "curl": "6043ca17a99c2f697d8fa2c1a849bfd083c4766cca7808ca6775b75181fe1bd2",
        "d_delta": "e24b7a3f0de3e1fcae16c9c92145e7fefe74cf7b47928dc7b020f2f27e63dad8",
        "mj3.d2gamma0": "9d322e12711f75f33030b618293f7e6f5b536fc9f22077a81988daeac678a42f",
        "mj3.driem0": "822e08fb724691937a7e83aeb464afd7246036104d4691c88c32626838e025e3",
        "mj3.e_mixed": "7b0f79b49bf90cc4a41cfb7fe46108d4469a72c150f8602870af6640437224fe",
        "mj3.g": "649e7b2215c894b92253bb65e3aa91528d0c310e5133d841a9f9e8ddd41dbe29",
        "mj3.g_inv": "d1075b704d2925fd628a381773f523b75867f28017af33385c647169dbb301c1",
        "mj3.gamma": "1388217042f1798ece1b5daeb024dc3a39bf322c18af8455332b06e6d4c06529",
        "mj3.rho": "be92185620c631cfd1d792a647a2277c68c6c4623f24456b49e68a0a4e7d9d73",
        "mj3.rho_inv": "d579ad68ec8efb3bafe01ac49e67a2c853d0a3a98ed59370bf8bb98b036259c6",
        "mj3.riem0": "9d8bf3adea6da20585096fbf12ef920e3f511a8df7b1af5873302ea30d133ff8",
        "mj4.d2gamma0": "9d322e12711f75f33030b618293f7e6f5b536fc9f22077a81988daeac678a42f",
        "mj4.driem0": "822e08fb724691937a7e83aeb464afd7246036104d4691c88c32626838e025e3",
        "mj4.e_mixed": "740a21b29e31d7e60c058f63b200b7a3acb890ee21adfdef04d4c17f21a0991d",
        "mj4.g": "86434d77c6ac6e2085254f616938ab0b585fb416c0d49a46c2ac8daa93547887",
        "mj4.g_inv": "3cd8b85c16684de455357ebfb70bdab3abffc1198bfe1e0258be59d396a60167",
        "mj4.gamma": "5f00388918efd2344a3decb2fd3d80525438d98518e2207b42a81d70f8a39987",
        "mj4.rho": "d916604e46815b0be5ea13de656f2b8b3c73e310b028f0bfd6aa896d63aab119",
        "mj4.rho_inv": "f73d6e42a2bd9f866cdd7e41ce0acd4f075c5df0bcd04310c8d9bf5ee8def744",
        "mj4.riem0": "9d8bf3adea6da20585096fbf12ef920e3f511a8df7b1af5873302ea30d133ff8",
        "transport.('y_to_tau_y', Fraction(1, 2))": "db4fc6af122e2a3be70bbc8ba80dde1b5e623f3a1801b0815b69c87f243d3d98",
        "transport.origin_to_y": "60a5997687bbb29de4e18f63d985d9f85c2348a5265fb8ae0fd0c1d6801e6833",
        "transport.y_to_origin": "f9386d00a3f5130f1c0d19573fb377f248661d5820c256c2a66219106aac719c",
    },
    "c11": {
        "curl": "8b47678adac8a485922900a382680f7f9e266987e7d062661378461d48f92099",
        "d_delta": "684bd43d09854e2749b24ae027f219cb8c006383182ab49ae44cf66686695aac",
        "hodge": "d4b3f032108b4d89b17bc24eba6d06da2ca6bde13ca803b0a2ac96aa5d267b9b",
        "mj3.d2gamma0": "ba57a97ebf097e2cf6ce7fa74454573fb229897e7fb0d1b2e8b49186e0136c5c",
        "mj3.driem0": "18aa276ff3ae97305484543cd0fa9526d08f6f994c7c3eae72fc5d8e661b2027",
        "mj3.e_mixed": "b65b40b5678686e06b8c06a94a0c10c5e84ce6f25600b8b0002a75f146634107",
        "mj3.g": "3be5aa68ce86df5344878e31cbbb30fce596292e241bbc3ec8fb2f5b4e3f62fd",
        "mj3.g_inv": "3147165112b4953d47d231af2ccb3a235c3448d34f9dd6a17a4d8063cee2c879",
        "mj3.gamma": "df0fd421016d4315bdbcc1216ec5d727b42af2ec54133d9ef9f381a0cba5de9d",
        "mj3.rho": "784703fcb9ffb3857d6be8d6af24f3280afa6cae70becb9126387e2336ae2632",
        "mj3.rho_inv": "9f6ebd4cf13bce14fdf77dec97876f5a3856ded74880f40f58eb40f5d17f6e6e",
        "mj3.riem0": "771a75daa31314af4c566a6cf821a72eaba02f28897cb58bfb99a0fe404b6319",
        "mj4.d2gamma0": "ba57a97ebf097e2cf6ce7fa74454573fb229897e7fb0d1b2e8b49186e0136c5c",
        "mj4.driem0": "18aa276ff3ae97305484543cd0fa9526d08f6f994c7c3eae72fc5d8e661b2027",
        "mj4.e_mixed": "9ac7d444e56ca94d850be9a253b9875cd52f3221bf8c265c7bb483ef091991dd",
        "mj4.g": "79f5a159c90307e23891f9eccfc1946c691c13be14b2b25442ff6d1eaf4ac8da",
        "mj4.g_inv": "b30619aea31aefe155776fbf85be57f45554c53a753038a3c01edb89409cfb65",
        "mj4.gamma": "57c3f877ebfc3178747de70b06909ff4346a53e00dc86240a0f2e8278e5785d5",
        "mj4.rho": "c7c31c4855f577ab59dfe032e540a8b0c250fe09bb8e8cfaa40dfe4a3310f933",
        "mj4.rho_inv": "594967fe2971ae5d574c95b3eafd44e837ffcc05f495cf55d3403c4849719ef7",
        "mj4.riem0": "771a75daa31314af4c566a6cf821a72eaba02f28897cb58bfb99a0fe404b6319",
        "transport.('y_to_tau_y', Fraction(1, 2))": "cc76d8a24e79ee2160d245572e005b7e8f938b284a2eb50017ad8265a10648e6",
        "transport.origin_to_y": "429350f8805a67e69aebf6f7ffb4c3f05ea2c2d0fa0a39ed9e3c03a0aa47bcc0",
        "transport.y_to_origin": "692248983be548576df85133db07589ed21698d161ba3a0c629532df64f0f2d6",
    },
    "c17": {
        "curl": "37ab36cceb1eb370bdb7608fce27ef1608344b2cc434520756a137a0fa5186bc",
        "d_delta": "aced7e98ec8d33878445afee431ed97e945fc22eb37529aac429cbbdc7e61bd1",
        "hodge": "106de2068512baef9340218e75e16a7c9d4cdf6352e0c6d151b7a99ac384b860",
        "mj3.d2gamma0": "b1690ca6dbe3b67f8aa3b1889bee53c530388a318bf9dbc9c48f533afb2ad753",
        "mj3.driem0": "86841edfcb4cc1bd7d5a26ec86e7bbd8862230d1f2c8c954367b06df65287b9a",
        "mj3.e_mixed": "444a6882a451cba6c482c0db4d2818b828f2a4d26f753291aea0f8727ac77536",
        "mj3.g": "6a07bec632477fbea76305fd9c924b8a852b6d0bb71a7a1197c6c23b29ae5bb4",
        "mj3.g_inv": "56f2a75b4e3129da7627e75e24975630c8500af7279ccaaa19b988330ef7e89b",
        "mj3.gamma": "ada60865415baaedd33dc52d53a3ff237802d8d03307794b66df03f5b3143042",
        "mj3.rho": "b4373f8ba3c68520d0f3296d8ee01e5a9e053db722cc84bc142d121d21afa518",
        "mj3.rho_inv": "69be9cc38fa6bb1156a60d1acdf34a1334370c48f02f28dfbe46ee37a5ac2c2d",
        "mj3.riem0": "771a75daa31314af4c566a6cf821a72eaba02f28897cb58bfb99a0fe404b6319",
        "mj4.d2gamma0": "b1690ca6dbe3b67f8aa3b1889bee53c530388a318bf9dbc9c48f533afb2ad753",
        "mj4.driem0": "86841edfcb4cc1bd7d5a26ec86e7bbd8862230d1f2c8c954367b06df65287b9a",
        "mj4.e_mixed": "14a8f6a0a6409f9903154dd06806b28f545d7074cbac5a57d59520496ea7e3f7",
        "mj4.g": "ddbf449aa5f4770305daa0681b4d326e039fd284478dbb219be5ffa14b45b0aa",
        "mj4.g_inv": "cde1051aa556260895a50b7c4ef6867d32726cd5de096ecb95fda344f2b6f3db",
        "mj4.gamma": "060a2cf3ac46e149ca28d41c022ea24baafa201b30175e2ae8e0195355eaa134",
        "mj4.rho": "fc4bc917f827a20b79e7d6d92dc114ebed35c83cb74e229cb9dc5a90146bb143",
        "mj4.rho_inv": "1b5d67d5da2f50857852724b3e45d94cb27ff65c92d8911921c16fea1e5f5195",
        "mj4.riem0": "771a75daa31314af4c566a6cf821a72eaba02f28897cb58bfb99a0fe404b6319",
        "transport.('y_to_tau_y', Fraction(1, 2))": "234c423b759b09958aa6a50307c02caaa8fc42773bb1a673db4c197f8de47eec",
        "transport.origin_to_y": "4dba20f5cf4d3ee203f1f5c3abf1404affad146567c95ead5b3a3ebe5daa5435",
        "transport.y_to_origin": "52941d01f9ed1b894ef8df1867df021428f8c870f5711d15303fb0516dc499b5",
    },
    "seed1": {
        "curl": "06d29bb80954e19c53ce008f28fc870dd495133f950bcbd4f3c8bb2b9a7d3311",
        "d_delta": "92e64d6b2613c839d92f682a587cc0e384ecccf0736b7947c4cd300ba691aabd",
        "hodge": "000962f6549519dee844436a1c057b842e65ef3a3d55fbd69094e3be1e619ebb",
        "mj3.d2gamma0": "b9b846967b65e0c07ba67af8c55e589040a3e98fdc9e25eb447aaf121d8d2a2c",
        "mj3.driem0": "fbc8c8c8a9d83e15b300aca6b8725d6ac594159769796e517d33c4516600dad7",
        "mj3.e_mixed": "752c35a842d12dbf11b02291d06999233970e64bea3ccae9f154c89a0e2e3692",
        "mj3.g": "e3ef2db67c7ea3b1ed330cf1ca5f60bf5a149d5a060a6c9f8bb1dfe138c6c6ac",
        "mj3.g_inv": "ad1f714f3caee32d3830b44c53200ae16673351aa2f2be56177319c5df612292",
        "mj3.gamma": "7c70193c57322a83c2899ce6c8a2ed993522d992876d8b218ee843de2737504b",
        "mj3.rho": "8cd6ffffb643ef319966f57cefa87101c14dcb099cc48606014a23bf94355be8",
        "mj3.rho_inv": "54d29d979d2ed2279e94fa35448793b8085b348570976d5601d776b59d314623",
        "mj3.riem0": "67177b5242535ed90dca3070dd799d5cd120ecb241e1c6bda5dfd70f10c09b9f",
        "mj4.d2gamma0": "b9b846967b65e0c07ba67af8c55e589040a3e98fdc9e25eb447aaf121d8d2a2c",
        "mj4.driem0": "fbc8c8c8a9d83e15b300aca6b8725d6ac594159769796e517d33c4516600dad7",
        "mj4.e_mixed": "2715390cd4055e286fb83553304e90996bf4916866f5fb0276b9513b168f143d",
        "mj4.g": "1402fb3f81469c10f28ce24f88a56b77d33ea90d928a17435878b0092a694dec",
        "mj4.g_inv": "5e1b9d48d8a83101bd9cd8a55b66dfb4a5a980b407d9c331aa9a76d1cfacae83",
        "mj4.gamma": "c26c4522ad0879d46d590254a066b11f4f73a1cd63d794c3abb4d0c333c73de0",
        "mj4.rho": "2df545a5f4957247a870bf5a0b92860400102b1b3ad93b994aefb519ee5a951b",
        "mj4.rho_inv": "44707eea692f47a0a65e41e15cb2b01297a4c282cc01afab60e6c18118409b2f",
        "mj4.riem0": "67177b5242535ed90dca3070dd799d5cd120ecb241e1c6bda5dfd70f10c09b9f",
        "transport.('y_to_tau_y', Fraction(1, 2))": "29810988becaea2b712e371904c4e57ca4a73d8b5fa0a772ffee08b8a693464f",
        "transport.origin_to_y": "d347b380910244f43e185753f7af5f1984b4761dcf7f780a424871699f6bbe54",
        "transport.y_to_origin": "091a8a7dc7bc177c7de1bc5e7be8190744a0302bef5c174f28973d649934dc7d",
    },
    "seed2": {
        "curl": "35d1a32c71210acb8c34744d0a343cec5d646bc060abbeb03e8f92c912aeb455",
        "d_delta": "72a92e10dddcec84454b684b030bc756e3af8d115e9bfe698bd714ca3a563367",
        "hodge": "35c40285402d51496b24a1f24e177f8911dac5808abfc4d3e968bdc15a347f3a",
        "mj3.d2gamma0": "74ce562acd630bec4863ccb98561abd5bee158a29d39cf18b6aac20451b09064",
        "mj3.driem0": "4109ed12d43b3d8135d077a25506cd820ebea7cca235347326260daf4d64e173",
        "mj3.e_mixed": "e4c08bce5e073a72bce8572c3f6afc2f2a8eb689678f9cb2c2f2670438b6afda",
        "mj3.g": "bee6f4c5a5f0908b365fc86a4c00575d9b461e4503e9e11c4b509bfee78373bf",
        "mj3.g_inv": "503be43e239f30965fab916e804a0f69c085569d12648611c84b47f9bf3e20e0",
        "mj3.gamma": "33eea0b05ac06f48a8bbfcfce4ef8d23dbae000d20bf9345612e321ebdb147ea",
        "mj3.rho": "234d719ff45e97a3c8e5989da2ba62d9feb00df53e8c56b51c76240a29b114aa",
        "mj3.rho_inv": "30d26cb6d738b98c5c9d3d18bc4ff0c7b875e95433ae94abfee89eae5cf79ef3",
        "mj3.riem0": "e4e19c379a453d78bc63b41dca000b2edffe330899cda5e0fc566962ac6e9651",
        "mj4.d2gamma0": "74ce562acd630bec4863ccb98561abd5bee158a29d39cf18b6aac20451b09064",
        "mj4.driem0": "4109ed12d43b3d8135d077a25506cd820ebea7cca235347326260daf4d64e173",
        "mj4.e_mixed": "71306c0c24fa64f9ad6af228699afea64bec62110568e67e29746808310cbb00",
        "mj4.g": "c8c5b63be1c7a891905d9bd5ecd77a81d947e0eac6f72c3cc6ca195c1420ee5d",
        "mj4.g_inv": "1ef3a307a1a71aaf56e5847ddf17eccca3f61e2c2e46e21edeb722864b9096d1",
        "mj4.gamma": "8f06a7b9cfe7aa89929f4236731dc63998a88d491cb5d5a8018ae0bb3e7282d8",
        "mj4.rho": "49074b38b9cf0faa4ef57ac1053c6b47c77c7ceb8023e19e656c5cc5367a2a82",
        "mj4.rho_inv": "e8c8e076366bfef76872a47999b07cf08500a05d75a0721bbf435e6bae7892ce",
        "mj4.riem0": "e4e19c379a453d78bc63b41dca000b2edffe330899cda5e0fc566962ac6e9651",
        "transport.('y_to_tau_y', Fraction(1, 2))": "ac7f5c06a63c1cd9ff24a9cb5ea74442c7609c6af6b6fd4e29713244980490c9",
        "transport.origin_to_y": "8c28745d7eef91c87bd8c3ec669ca8439e93f9793a75b976b0f73cc2c893bfae",
        "transport.y_to_origin": "c4a30df1ffb16a8778acd09e6cbfc4b19335a482a1d5a8ef2affcfbe2cdfd5b6",
    },
}


@pytest.mark.parametrize("name", CONFIGS)
def test_geometry_layer_digests(name):
    assert layer_digests(name) == PINNED[name]
